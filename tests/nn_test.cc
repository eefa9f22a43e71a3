// Tests for src/nn: matrix algebra against naive references, finite-
// difference gradient checks through the full MLP, optimizer convergence,
// loss gradients, serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "nn/layer.h"
#include "nn/loss.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hfq {
namespace {

Matrix NaiveMatmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < a.cols(); ++k) acc += a.At(i, k) * b.At(k, j);
      out.At(i, j) = acc;
    }
  }
  return out;
}

Matrix RandomMatrix(int64_t r, int64_t c, Rng* rng) {
  Matrix m(r, c);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Normal();
  return m;
}

// Same shape and the same bytes: exact equality, signed zeros included.
::testing::AssertionResult BitsEqual(const Matrix& got, const Matrix& want) {
  if (!got.SameShape(want)) {
    return ::testing::AssertionFailure()
           << got.rows() << "x" << got.cols() << " vs " << want.rows() << "x"
           << want.cols();
  }
  for (int64_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(got.data() + i, want.data() + i, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got.data()[i] << " vs "
             << want.data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(MatrixTest, MatmulMatchesNaive) {
  Rng rng(1);
  Matrix a = RandomMatrix(5, 7, &rng);
  Matrix b = RandomMatrix(7, 3, &rng);
  EXPECT_TRUE(BitsEqual(Matmul(a, b), NaiveMatmul(a, b)));
}

TEST(MatrixTest, MatmulTransposedVariants) {
  Rng rng(2);
  Matrix a = RandomMatrix(6, 4, &rng);
  Matrix b = RandomMatrix(6, 5, &rng);
  // a^T * b == naive(transpose(a), b)
  Matrix at(4, 6);
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 4; ++j) at.At(j, i) = a.At(i, j);
  }
  EXPECT_TRUE(BitsEqual(MatmulTransA(a, b), NaiveMatmul(at, b)));
  // a * b^T
  Matrix c = RandomMatrix(3, 4, &rng);
  Matrix bt(4, 3);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) bt.At(j, i) = c.At(i, j);
  }
  // (6x4) * (3x4)^T -> 6x3
  EXPECT_TRUE(BitsEqual(MatmulTransB(a, c), NaiveMatmul(a, bt)));
  EXPECT_TRUE(BitsEqual(Transposed(c), bt));
}

// Scalar references for the three products, written like the loops the
// register-tiled kernel replaced: every output element accumulates from
// +0.0 over the shared dimension in ascending order as acc += a * b, with
// the same expression, so the compiler contracts it into a fused
// multiply-add exactly where it contracts the kernel's.
Matrix ReferenceMatmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    double* out_row = out.data() + i * out.cols();
    for (int64_t p = 0; p < a.cols(); ++p) {
      const double a_ip = a.data()[i * a.cols() + p];
      const double* b_row = b.data() + p * b.cols();
      for (int64_t j = 0; j < b.cols(); ++j) out_row[j] += a_ip * b_row[j];
    }
  }
  return out;
}

Matrix ReferenceMatmulTransA(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  for (int64_t p = 0; p < a.rows(); ++p) {
    const double* b_row = b.data() + p * b.cols();
    for (int64_t i = 0; i < a.cols(); ++i) {
      const double a_pi = a.data()[p * a.cols() + i];
      double* out_row = out.data() + i * out.cols();
      for (int64_t j = 0; j < b.cols(); ++j) out_row[j] += a_pi * b_row[j];
    }
  }
  return out;
}

Matrix ReferenceMatmulTransB(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  for (int64_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.data() + i * a.cols();
    for (int64_t j = 0; j < b.rows(); ++j) {
      const double* b_row = b.data() + j * b.cols();
      double acc = 0.0;
      for (int64_t p = 0; p < a.cols(); ++p) acc += a_row[p] * b_row[p];
      out.At(i, j) = acc;
    }
  }
  return out;
}

// Operands of one exactness case: dense normals, or sparse 0/1 feature
// rows (like a first layer's input) with an all-zero row and column.
Matrix CaseMatrix(int64_t rows, int64_t cols, bool sparse, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = sparse ? (rng->Uniform(0.0, 1.0) < 0.1 ? 1.0 : 0.0)
                         : rng->Normal();
  }
  if (sparse) {
    for (int64_t c = 0; c < cols; ++c) m.At(0, c) = 0.0;
    for (int64_t r = 0; r < rows; ++r) m.At(r, cols - 1) = 0.0;
  }
  return m;
}

// Every tile shape of the kernel: full row blocks and each row remainder,
// full column tiles and every narrower column remainder on any target
// (up to 32 columns per tile), across the shared dimensions the networks
// use; each product is bit-identical to its scalar reference.
TEST(MatrixTest, KernelProductsMatchScalarReferencesBitForBit) {
  const std::vector<int64_t> row_counts = {1, 2, 3, 4, 5, 63, 64};
  std::vector<int64_t> col_counts = {31, 32, 33, 100, 128, 289};
  for (int64_t c = 1; c <= 9; ++c) col_counts.push_back(c);
  const std::vector<int64_t> depths = {1, 254, 612};
  Rng rng(20261020);
  for (bool sparse : {false, true}) {
    for (int64_t k : depths) {
      for (int64_t m : row_counts) {
        for (int64_t n : col_counts) {
          SCOPED_TRACE(::testing::Message() << m << "x" << k << " * " << k
                                            << "x" << n
                                            << " sparse=" << sparse);
          // Sparse operands are the left (feature) side; the weights and
          // gradients they meet are dense.
          const Matrix x = CaseMatrix(m, k, sparse, &rng);
          const Matrix w = CaseMatrix(k, n, false, &rng);
          Matrix out;
          MatmulInto(x, w, &out);
          ASSERT_TRUE(BitsEqual(out, ReferenceMatmul(x, w)));
          // Weight gradient X^T G: X is (m x k) here with m the shared
          // dimension, G (m x n).
          const Matrix g = CaseMatrix(m, n, false, &rng);
          ASSERT_TRUE(BitsEqual(MatmulTransA(x, g),
                                ReferenceMatmulTransA(x, g)));
          // Input gradient G W^T with W (n x k).
          const Matrix gi = CaseMatrix(m, k, sparse, &rng);
          const Matrix wt = CaseMatrix(n, k, false, &rng);
          ASSERT_TRUE(BitsEqual(MatmulTransB(gi, wt),
                                ReferenceMatmulTransB(gi, wt)));
        }
      }
    }
  }
}

TEST(MatrixTest, KernelHandlesEmptyShapes) {
  Rng rng(3);
  Matrix out;
  MatmulInto(Matrix(0, 4), RandomMatrix(4, 3, &rng), &out);
  EXPECT_EQ(out.rows(), 0);
  EXPECT_EQ(out.cols(), 3);
  // An empty shared dimension sums nothing: every element is +0.0.
  MatmulInto(Matrix(2, 0), Matrix(0, 5), &out);
  EXPECT_TRUE(BitsEqual(out, Matrix(2, 5)));
  EXPECT_TRUE(BitsEqual(MatmulTransA(Matrix(0, 3), Matrix(0, 2)),
                        Matrix(3, 2)));
  EXPECT_TRUE(BitsEqual(MatmulTransB(Matrix(2, 0), Matrix(4, 0)),
                        Matrix(2, 4)));
}

// The elementwise passes run kLanes elements at a time and then one at a
// time; every length below crosses both, and each pass must match its
// scalar loop bit for bit.
TEST(MatrixTest, ElementwisePassesMatchScalarLoops) {
  Rng rng(4);
  for (int64_t cols = 1; cols <= 19; ++cols) {
    SCOPED_TRACE(cols);
    const Matrix a = RandomMatrix(3, cols, &rng);
    const Matrix b = RandomMatrix(3, cols, &rng);
    Matrix want = a;
    Matrix got = a;
    for (int64_t i = 0; i < want.size(); ++i) want.data()[i] += b.data()[i];
    got.Add(b);
    EXPECT_TRUE(BitsEqual(got, want));
    for (int64_t i = 0; i < want.size(); ++i) want.data()[i] *= -1.5;
    got.Scale(-1.5);
    EXPECT_TRUE(BitsEqual(got, want));

    Matrix sums(1, cols);
    Matrix shifted = a;
    for (int64_t r = 0; r < a.rows(); ++r) {
      for (int64_t c = 0; c < cols; ++c) {
        sums.At(0, c) += a.At(r, c);
        shifted.At(r, c) += b.At(0, c);
      }
    }
    EXPECT_TRUE(BitsEqual(ColumnSum(a), sums));
    Matrix row = b.Row(0);
    Matrix got_shifted = a;
    AddRowVectorInPlace(&got_shifted, row);
    EXPECT_TRUE(BitsEqual(got_shifted, shifted));
  }
}

// ReLU keeps std::max(0.0, x)'s answers for -0.0 and NaN (+0.0), and its
// backward zeroes the gradient exactly where the input was <= 0.
TEST(LayerTest, ReluMatchesScalarSemantics) {
  const double nan = std::nan("");
  Matrix x = Matrix::RowVector(
      {-2.0, -0.0, 0.0, 3.0, nan, -1e-300, 1e-300, 5.0, -7.0, 2.0, 0.5});
  Relu relu;
  Matrix y = relu.Forward(x);
  Matrix want = x;
  for (int64_t i = 0; i < want.size(); ++i) {
    want.data()[i] = std::max(0.0, want.data()[i]);
  }
  EXPECT_TRUE(BitsEqual(y, want));
  Matrix grad = Matrix::Constant(1, x.cols(), 1.25);
  Matrix back = relu.Backward(grad);
  for (int64_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(back.data()[i], x.data()[i] <= 0.0 ? 0.0 : 1.25) << i;
  }
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Matrix::Constant(2, 2, 3.0);
  Matrix b = Matrix::Constant(2, 2, 2.0);
  a.Add(b);
  EXPECT_EQ(a.At(0, 0), 5.0);
  a.Axpy(0.5, b);
  EXPECT_EQ(a.At(1, 1), 6.0);
  a.Hadamard(b);
  EXPECT_EQ(a.At(0, 1), 12.0);
  a.Scale(0.5);
  EXPECT_EQ(a.At(1, 0), 6.0);
  EXPECT_EQ(a.Sum(), 24.0);
  EXPECT_EQ(Matrix::Constant(1, 2, 3.0).SquaredNorm(), 18.0);
}

TEST(MatrixTest, ColumnSumAndRowBroadcast) {
  Matrix m(2, 3);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<double>(i);
  }
  Matrix cs = ColumnSum(m);
  EXPECT_EQ(cs.At(0, 0), 3.0);  // 0 + 3
  EXPECT_EQ(cs.At(0, 2), 7.0);  // 2 + 5
  Matrix row = Matrix::RowVector({1.0, 1.0, 1.0});
  AddRowVectorInPlace(&m, row);
  EXPECT_EQ(m.At(0, 0), 1.0);
  EXPECT_EQ(m.At(1, 2), 6.0);
}

TEST(MatrixTest, FromRowsStacksEqualLengthRows) {
  Matrix m = Matrix::FromRows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m.At(0, 0), 1.0);
  EXPECT_EQ(m.At(1, 1), 4.0);
  EXPECT_EQ(m.At(2, 1), 6.0);
}

// The minibatched training path relies on one B-row Forward/Backward
// accumulating the same parameter gradients as B per-sample passes.
TEST(MlpBatchTest, BatchedBackwardMatchesPerSampleAccumulation) {
  Rng rng(14);
  MlpConfig config;
  config.input_dim = 4;
  config.hidden_dims = {6, 5};
  config.output_dim = 3;
  config.activation = Activation::kTanh;
  Mlp batched(config, &rng);
  Mlp reference = batched;  // Deep copy: identical weights.

  const int64_t kBatch = 5;
  Matrix x = RandomMatrix(kBatch, config.input_dim, &rng);
  Matrix g = RandomMatrix(kBatch, config.output_dim, &rng);

  batched.ZeroGrads();
  batched.Forward(x);
  batched.Backward(g);

  reference.ZeroGrads();
  for (int64_t r = 0; r < kBatch; ++r) {
    reference.Forward(x.Row(r));
    reference.Backward(g.Row(r));
  }

  auto bg = batched.Grads();
  auto rg = reference.Grads();
  ASSERT_EQ(bg.size(), rg.size());
  int64_t compared = 0;
  for (size_t p = 0; p < bg.size(); ++p) {
    ASSERT_TRUE(bg[p]->SameShape(*rg[p]));
    for (int64_t k = 0; k < bg[p]->size(); ++k) {
      EXPECT_NEAR(bg[p]->data()[k], rg[p]->data()[k], 1e-10)
          << "param " << p << " index " << k;
      ++compared;
    }
  }
  EXPECT_GT(compared, 50);
}

// Same property through the ReLU activation (the default for the agents):
// its gradient gate must be applied row-wise from the batched cache.
TEST(MlpBatchTest, BatchedBackwardMatchesPerSampleWithRelu) {
  Rng rng(15);
  MlpConfig config;
  config.input_dim = 3;
  config.hidden_dims = {8};
  config.output_dim = 2;
  config.activation = Activation::kRelu;
  Mlp batched(config, &rng);
  Mlp reference = batched;

  Matrix x = RandomMatrix(7, 3, &rng);
  Matrix g = RandomMatrix(7, 2, &rng);
  batched.ZeroGrads();
  batched.Forward(x);
  batched.Backward(g);
  reference.ZeroGrads();
  for (int64_t r = 0; r < 7; ++r) {
    reference.Forward(x.Row(r));
    reference.Backward(g.Row(r));
  }
  auto bg = batched.Grads();
  auto rg = reference.Grads();
  for (size_t p = 0; p < bg.size(); ++p) {
    for (int64_t k = 0; k < bg[p]->size(); ++k) {
      EXPECT_NEAR(bg[p]->data()[k], rg[p]->data()[k], 1e-10);
    }
  }
}

TEST(SoftmaxTest, RowsSumToOneAndStable) {
  Matrix logits(2, 3);
  logits.At(0, 0) = 1000.0;  // Numerical stability probe.
  logits.At(0, 1) = 1000.0;
  logits.At(0, 2) = -1000.0;
  logits.At(1, 0) = 0.0;
  logits.At(1, 1) = 1.0;
  logits.At(1, 2) = 2.0;
  Matrix p = Softmax(logits);
  for (int64_t r = 0; r < 2; ++r) {
    double total = 0.0;
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_GE(p.At(r, c), 0.0);
      total += p.At(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  EXPECT_NEAR(p.At(0, 0), 0.5, 1e-6);
  EXPECT_LT(p.At(1, 0), p.At(1, 2));
}

// Finite-difference gradient check through a 2-hidden-layer MLP with MSE.
TEST(MlpGradientTest, BackpropMatchesFiniteDifferences) {
  Rng rng(5);
  MlpConfig config;
  config.input_dim = 4;
  config.hidden_dims = {6, 5};
  config.output_dim = 3;
  config.activation = Activation::kTanh;  // Smooth: finite diffs behave.
  Mlp mlp(config, &rng);

  Matrix x = RandomMatrix(2, 4, &rng);
  Matrix target = RandomMatrix(2, 3, &rng);

  auto loss_fn = [&]() {
    Matrix pred = mlp.Forward(x);
    Matrix grad;
    return MseLoss(pred, target, &grad);
  };

  // Analytic gradients.
  mlp.ZeroGrads();
  Matrix pred = mlp.Forward(x);
  Matrix grad;
  MseLoss(pred, target, &grad);
  mlp.Backward(grad);

  auto params = mlp.Params();
  auto grads = mlp.Grads();
  const double eps = 1e-6;
  int checked = 0;
  for (size_t p = 0; p < params.size(); ++p) {
    // Spot-check a handful of coordinates per parameter matrix.
    for (int64_t k = 0; k < params[p]->size();
         k += std::max<int64_t>(1, params[p]->size() / 5)) {
      double orig = params[p]->data()[k];
      params[p]->data()[k] = orig + eps;
      double up = loss_fn();
      params[p]->data()[k] = orig - eps;
      double down = loss_fn();
      params[p]->data()[k] = orig;
      double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(grads[p]->data()[k], numeric, 1e-5)
          << "param " << p << " index " << k;
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

TEST(MlpGradientTest, CrossEntropyGradientMatchesFiniteDifferences) {
  Rng rng(6);
  MlpConfig config;
  config.input_dim = 3;
  config.hidden_dims = {8};
  config.output_dim = 4;
  config.activation = Activation::kTanh;
  Mlp mlp(config, &rng);
  Matrix x = RandomMatrix(3, 3, &rng);
  std::vector<int> targets = {1, 3, 0};
  std::vector<double> weights = {1.0, 0.5, 2.0};

  auto loss_fn = [&]() {
    Matrix logits = mlp.Forward(x);
    Matrix grad;
    return SoftmaxCrossEntropyLoss(logits, targets, weights, &grad);
  };

  mlp.ZeroGrads();
  Matrix logits = mlp.Forward(x);
  Matrix grad;
  SoftmaxCrossEntropyLoss(logits, targets, weights, &grad);
  mlp.Backward(grad);

  auto params = mlp.Params();
  auto grads = mlp.Grads();
  const double eps = 1e-6;
  for (size_t p = 0; p < params.size(); ++p) {
    for (int64_t k = 0; k < params[p]->size();
         k += std::max<int64_t>(1, params[p]->size() / 4)) {
      double orig = params[p]->data()[k];
      params[p]->data()[k] = orig + eps;
      double up = loss_fn();
      params[p]->data()[k] = orig - eps;
      double down = loss_fn();
      params[p]->data()[k] = orig;
      EXPECT_NEAR(grads[p]->data()[k], (up - down) / (2.0 * eps), 1e-5);
    }
  }
}

TEST(LossTest, HuberMatchesMseInQuadraticRegion) {
  Matrix pred = Matrix::RowVector({1.0, 2.0});
  Matrix target = Matrix::RowVector({1.2, 1.9});
  Matrix g1, g2;
  double mse = MseLoss(pred, target, &g1);
  double huber = HuberLoss(pred, target, 10.0, &g2);
  EXPECT_NEAR(huber, mse / 2.0, 1e-12);  // Huber = 0.5 * squared error.
}

TEST(LossTest, HuberLinearTails) {
  Matrix pred = Matrix::RowVector({100.0});
  Matrix target = Matrix::RowVector({0.0});
  Matrix g;
  double loss = HuberLoss(pred, target, 1.0, &g);
  EXPECT_NEAR(loss, 99.5, 1e-9);
  EXPECT_NEAR(g.At(0, 0), 1.0, 1e-12);  // Clamped gradient.
}

TEST(LossTest, EntropyMaximalForUniform) {
  Matrix uniform = Matrix::RowVector({1.0, 1.0, 1.0, 1.0});
  Matrix peaked = Matrix::RowVector({10.0, 0.0, 0.0, 0.0});
  Matrix g;
  double h_uniform = SoftmaxEntropy(uniform, 0.01, &g);
  double h_peaked = SoftmaxEntropy(peaked, 0.01, &g);
  EXPECT_NEAR(h_uniform, std::log(4.0), 1e-9);
  EXPECT_LT(h_peaked, h_uniform);
}

TEST(OptimizerTest, SgdFitsLinearRegression) {
  Rng rng(8);
  MlpConfig config;
  config.input_dim = 1;
  config.hidden_dims = {};
  config.output_dim = 1;
  Mlp mlp(config, &rng);
  Sgd sgd(0.05, 0.9);
  // Fit y = 2x + 1.
  for (int step = 0; step < 500; ++step) {
    double xv = rng.Uniform(-1.0, 1.0);
    Matrix x = Matrix::RowVector({xv});
    Matrix y = Matrix::RowVector({2.0 * xv + 1.0});
    mlp.ZeroGrads();
    Matrix pred = mlp.Forward(x);
    Matrix grad;
    MseLoss(pred, y, &grad);
    mlp.Backward(grad);
    sgd.Step(mlp.Params(), mlp.Grads());
  }
  Matrix pred = mlp.Forward(Matrix::RowVector({0.5}));
  EXPECT_NEAR(pred.At(0, 0), 2.0, 0.05);
}

TEST(OptimizerTest, AdamFitsNonlinearFunction) {
  Rng rng(9);
  MlpConfig config;
  config.input_dim = 1;
  config.hidden_dims = {16, 16};
  config.output_dim = 1;
  Mlp mlp(config, &rng);
  Adam adam(3e-3);
  // Fit y = x^2 on [-1, 1].
  double final_loss = 1.0;
  for (int step = 0; step < 2000; ++step) {
    Matrix x(8, 1), y(8, 1);
    for (int i = 0; i < 8; ++i) {
      double xv = rng.Uniform(-1.0, 1.0);
      x.At(i, 0) = xv;
      y.At(i, 0) = xv * xv;
    }
    mlp.ZeroGrads();
    Matrix pred = mlp.Forward(x);
    Matrix grad;
    final_loss = MseLoss(pred, y, &grad);
    mlp.Backward(grad);
    adam.Step(mlp.Params(), mlp.Grads());
  }
  EXPECT_LT(final_loss, 0.01);
}

TEST(OptimizerTest, GradientClippingBoundsNorm) {
  Matrix g1 = Matrix::Constant(2, 2, 10.0);
  Matrix g2 = Matrix::Constant(1, 2, -10.0);
  std::vector<Matrix*> grads = {&g1, &g2};
  double before = ClipGradientsByGlobalNorm(grads, 1.0);
  EXPECT_GT(before, 1.0);
  double total = g1.SquaredNorm() + g2.SquaredNorm();
  EXPECT_NEAR(std::sqrt(total), 1.0, 1e-9);
}

// Adam's vector update against the scalar update it replaced: after 100
// steps over parameter matrices that exercise both the vector body and
// the scalar tail, parameters and both moments are bit-identical.
TEST(OptimizerTest, AdamMatchesScalarUpdateBitForBit) {
  Rng rng(11);
  std::vector<Matrix> params = {RandomMatrix(7, 13, &rng),
                                RandomMatrix(1, 5, &rng),
                                RandomMatrix(254, 128, &rng)};
  std::vector<Matrix> grads;
  for (const Matrix& p : params) grads.emplace_back(p.rows(), p.cols());
  std::vector<Matrix> want = params;
  std::vector<Matrix> m, v;
  for (const Matrix& p : params) {
    m.emplace_back(p.rows(), p.cols());
    v.emplace_back(p.rows(), p.cols());
  }
  const double lr = 3e-3, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  Adam adam(lr, beta1, beta2, eps);
  std::vector<Matrix*> param_ptrs, grad_ptrs;
  for (size_t i = 0; i < params.size(); ++i) {
    param_ptrs.push_back(&params[i]);
    grad_ptrs.push_back(&grads[i]);
  }
  for (int t = 1; t <= 100; ++t) {
    for (Matrix& g : grads) {
      for (int64_t k = 0; k < g.size(); ++k) {
        // Some exact zeros, some large steps.
        const double u = rng.Uniform(0.0, 1.0);
        g.data()[k] = u < 0.1 ? 0.0 : rng.Normal() * (u > 0.95 ? 1e3 : 1.0);
      }
    }
    adam.Step(param_ptrs, grad_ptrs);
    const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
    for (size_t i = 0; i < want.size(); ++i) {
      for (int64_t k = 0; k < grads[i].size(); ++k) {
        double gk = grads[i].data()[k];
        m[i].data()[k] = beta1 * m[i].data()[k] + (1.0 - beta1) * gk;
        v[i].data()[k] = beta2 * v[i].data()[k] + (1.0 - beta2) * gk * gk;
        double mhat = m[i].data()[k] / bc1;
        double vhat = v[i].data()[k] / bc2;
        want[i].data()[k] -= lr * mhat / (std::sqrt(vhat) + eps);
      }
    }
  }
  ASSERT_EQ(adam.first_moments().size(), params.size());
  ASSERT_EQ(adam.second_moments().size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(BitsEqual(params[i], want[i]));
    EXPECT_TRUE(BitsEqual(adam.first_moments()[i], m[i]));
    EXPECT_TRUE(BitsEqual(adam.second_moments()[i], v[i]));
  }
}

TEST(MlpTest, SerializationRoundTrip) {
  Rng rng(10);
  MlpConfig config;
  config.input_dim = 5;
  config.hidden_dims = {7, 3};
  config.output_dim = 2;
  config.activation = Activation::kRelu;
  Mlp mlp(config, &rng);
  Matrix x = RandomMatrix(1, 5, &rng);
  Matrix before = mlp.Forward(x);

  std::stringstream ss;
  ASSERT_TRUE(mlp.Save(ss).ok());
  auto loaded = Mlp::Load(ss);
  ASSERT_TRUE(loaded.ok());
  Matrix after = loaded->Forward(x);
  for (int64_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before.data()[i], after.data()[i], 1e-12);
  }
}

TEST(MlpTest, LoadRejectsGarbage) {
  std::stringstream ss("not-an-mlp 1 2 3");
  EXPECT_FALSE(Mlp::Load(ss).ok());
}

TEST(MlpTest, CopyAndSoftUpdate) {
  Rng rng(11);
  MlpConfig config;
  config.input_dim = 3;
  config.hidden_dims = {4};
  config.output_dim = 2;
  config.activation = Activation::kTanh;  // No dead-ReLU plateaus.
  Mlp a(config, &rng);
  Mlp b(config, &rng);
  b.CopyWeightsFrom(a);
  Matrix x = RandomMatrix(3, 3, &rng);
  Matrix ya = a.Forward(x);
  Matrix yb = b.Forward(x);
  for (int64_t i = 0; i < ya.size(); ++i) {
    EXPECT_EQ(ya.data()[i], yb.data()[i]);
  }
  // Soft update toward a third network moves outputs.
  Mlp c(config, &rng);
  b.SoftUpdateFrom(c, 0.5);
  Matrix yb2 = b.Forward(x);
  bool changed = false;
  for (int64_t i = 0; i < yb.size(); ++i) {
    if (yb.data()[i] != yb2.data()[i]) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(MlpTest, TransferMatchingWeightsCopiesTail) {
  Rng rng(12);
  MlpConfig big;
  big.input_dim = 10;
  big.hidden_dims = {8, 6};
  big.output_dim = 2;
  MlpConfig small;
  small.input_dim = 4;  // Different featurization...
  small.hidden_dims = {8, 6};
  small.output_dim = 2;  // ...same later layers.
  Mlp src(big, &rng);
  Mlp dst(small, &rng);
  int64_t copied = dst.TransferMatchingWeightsFrom(src);
  // Matching from the output end: out W+b, hidden2 W+b, and hidden1's bias
  // (1x8) all match — 5 matrices. The input weight matrix differs in shape
  // (10x8 vs 4x8) and must not be copied.
  EXPECT_EQ(copied, 5);
}

TEST(MlpTest, ParameterCountMatchesArchitecture) {
  Rng rng(13);
  MlpConfig config;
  config.input_dim = 4;
  config.hidden_dims = {8};
  config.output_dim = 3;
  Mlp mlp(config, &rng);
  // (4*8 + 8) + (8*3 + 3) = 40 + 27 = 67.
  EXPECT_EQ(mlp.ParameterCount(), 67);
}

TEST(MatrixTest, MatmulIntoMatchesMatmulAndRecyclesBuffers) {
  Rng rng(29);
  Matrix a(5, 7), b(7, 3);
  for (int64_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Normal();
  for (int64_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Normal();
  Matrix expected = Matmul(a, b);
  Matrix out(9, 9);  // Wrong shape: must be resized and zeroed.
  out.Fill(123.0);
  MatmulInto(a, b, &out);
  ASSERT_TRUE(out.SameShape(expected));
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.data()[i], expected.data()[i]);  // Bit-identical.
  }
  // Second call into the same buffer: stale contents must not leak.
  MatmulInto(a, b, &out);
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.data()[i], expected.data()[i]);
  }
}

TEST(MlpTest, ForwardIntoMatchesForwardBitForBit) {
  for (Activation act :
       {Activation::kRelu, Activation::kTanh, Activation::kSigmoid}) {
    Rng rng(31);
    MlpConfig config;
    config.input_dim = 6;
    config.hidden_dims = {16, 8};
    config.output_dim = 4;
    config.activation = act;
    Mlp mlp(config, &rng);
    Matrix x(3, 6);
    for (int64_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Normal();
    Matrix expected = mlp.Forward(x);
    MlpWorkspace ws;
    const Matrix& got = mlp.ForwardInto(x, &ws);
    ASSERT_TRUE(got.SameShape(expected));
    for (int64_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got.data()[i], expected.data()[i]);
    }
    // Workspace reuse across differently-shaped inputs.
    Matrix single = x.Row(0);
    Matrix expected1 = mlp.Forward(single);
    const Matrix& got1 = mlp.ForwardInto(single, &ws);
    ASSERT_TRUE(got1.SameShape(expected1));
    for (int64_t i = 0; i < got1.size(); ++i) {
      EXPECT_EQ(got1.data()[i], expected1.data()[i]);
    }
  }
}

TEST(MlpTest, ForwardBatchIntoIsPerRowBitIdentical) {
  // The batched-search contract: stacking N frontier states into one
  // ForwardBatchInto yields, in row i, the exact bits ForwardInto gives
  // for row i alone — for every activation, including the softmax-bearing
  // dims search actually uses. This is what lets every searcher batch its
  // frontier without changing which plan wins.
  for (Activation act :
       {Activation::kRelu, Activation::kTanh, Activation::kSigmoid}) {
    Rng rng(43);
    MlpConfig config;
    config.input_dim = 9;
    config.hidden_dims = {24, 16};
    config.output_dim = 7;
    config.activation = act;
    Mlp mlp(config, &rng);
    for (int n : {1, 2, 5, 17}) {
      Matrix batch(n, config.input_dim);
      for (int64_t i = 0; i < batch.size(); ++i) {
        batch.data()[i] = rng.Normal();
      }
      MlpWorkspace batch_ws;
      Matrix batched = mlp.ForwardBatchInto(batch, &batch_ws);
      ASSERT_EQ(batched.rows(), n);
      ASSERT_EQ(batched.cols(), config.output_dim);
      MlpWorkspace row_ws;
      for (int r = 0; r < n; ++r) {
        const Matrix& single = mlp.ForwardInto(batch.Row(r), &row_ws);
        for (int c = 0; c < config.output_dim; ++c) {
          EXPECT_EQ(batched.At(r, c), single.At(0, c))
              << "act " << static_cast<int>(act) << " n " << n << " row " << r
              << " col " << c;
        }
      }
      // The same rows in another batch (reversed order) give the same
      // bits: a row's result does not depend on its neighbours, which is
      // what lets the memo serve a row from whichever batch forwarded it.
      Matrix reversed(n, config.input_dim);
      for (int r = 0; r < n; ++r) reversed.SetRow(n - 1 - r, batch.Row(r));
      MlpWorkspace reversed_ws;
      const Matrix& rev = mlp.ForwardBatchInto(reversed, &reversed_ws);
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < config.output_dim; ++c) {
          EXPECT_EQ(batched.At(r, c), rev.At(n - 1 - r, c))
              << "act " << static_cast<int>(act) << " n " << n << " row " << r;
        }
      }
    }
  }
}

TEST(MlpTest, WorkspaceCountsForwardCallsAndRows) {
  // The counting hook the search tests lean on: outside a memo scope,
  // calls count network invocations (one per ForwardInto/ForwardBatchInto
  // regardless of batch rows), rows count the work.
  Rng rng(47);
  MlpConfig config;
  config.input_dim = 4;
  config.hidden_dims = {8};
  config.output_dim = 3;
  Mlp mlp(config, &rng);
  MlpWorkspace ws;
  EXPECT_EQ(ws.forward_calls, 0);
  EXPECT_EQ(ws.forward_rows, 0);
  Matrix one(1, 4);
  one.Fill(0.5);
  (void)mlp.ForwardInto(one, &ws);
  (void)mlp.ForwardInto(one, &ws);
  EXPECT_EQ(ws.forward_calls, 2);
  EXPECT_EQ(ws.forward_rows, 2);
  Matrix batch(6, 4);
  batch.Fill(0.25);
  (void)mlp.ForwardBatchInto(batch, &ws);
  EXPECT_EQ(ws.forward_calls, 3);  // One invocation...
  EXPECT_EQ(ws.forward_rows, 8);   // ...six rows of work.
}

// The per-search forward memo (MlpMemoScope). Every case compares against
// forwards outside any scope, which never touch the memo.
MlpConfig MemoTestConfig() {
  MlpConfig config;
  config.input_dim = 6;
  config.hidden_dims = {12, 8};
  config.output_dim = 5;
  return config;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

TEST(MlpMemoTest, RepeatedRowsAreForwardedOnceAndMatchTheUnscopedForward) {
  Rng rng(53);
  Mlp mlp(MemoTestConfig(), &rng);
  Matrix distinct = RandomMatrix(3, 6, &rng);
  // Rows 0..6 repeat the three distinct rows: 0, 1, 0, 2, 1, 1, 0.
  const int pattern[] = {0, 1, 0, 2, 1, 1, 0};
  Matrix batch(7, 6);
  for (int r = 0; r < 7; ++r) batch.SetRow(r, distinct.Row(pattern[r]));
  MlpWorkspace plain_ws;
  const Matrix expected = mlp.ForwardBatchInto(batch, &plain_ws);
  EXPECT_EQ(plain_ws.forward_rows, 7);
  EXPECT_EQ(plain_ws.memo.size(), 0);  // No scope: the memo is untouched.

  MlpWorkspace ws;
  MlpMemoScope memo(&ws);
  const Matrix& got = mlp.ForwardBatchInto(batch, &ws);
  EXPECT_TRUE(SameBits(got, expected));
  EXPECT_EQ(ws.forward_calls, 1);
  EXPECT_EQ(ws.forward_rows, 3);  // Each distinct row once.
  EXPECT_EQ(ws.memo.size(), 3);
}

TEST(MlpMemoTest, FullyMemoizedCallForwardsNothing) {
  Rng rng(59);
  Mlp mlp(MemoTestConfig(), &rng);
  Matrix batch = RandomMatrix(4, 6, &rng);
  MlpWorkspace plain_ws;
  const Matrix expected = mlp.ForwardBatchInto(batch, &plain_ws);

  MlpWorkspace ws;
  MlpMemoScope memo(&ws);
  (void)mlp.ForwardBatchInto(batch, &ws);
  EXPECT_EQ(ws.forward_calls, 1);
  // Every row, alone and in a new batch order, is already memoized.
  for (int r = 0; r < 4; ++r) {
    const Matrix& single = mlp.ForwardInto(batch.Row(r), &ws);
    EXPECT_TRUE(SameBits(single, expected.Row(r))) << r;
  }
  Matrix reordered(2, 6);
  reordered.SetRow(0, batch.Row(3));
  reordered.SetRow(1, batch.Row(1));
  const Matrix& two = mlp.ForwardBatchInto(reordered, &ws);
  EXPECT_TRUE(SameBits(two.Row(0), expected.Row(3)));
  EXPECT_TRUE(SameBits(two.Row(1), expected.Row(1)));
  EXPECT_EQ(ws.forward_calls, 1);
  EXPECT_EQ(ws.forward_rows, 4);
  // A batch mixing memoized and new rows forwards only the new one.
  Matrix mixed(3, 6);
  mixed.SetRow(0, batch.Row(2));
  mixed.SetRow(1, RandomMatrix(1, 6, &rng));
  mixed.SetRow(2, batch.Row(0));
  const Matrix& partial = mlp.ForwardBatchInto(mixed, &ws);
  MlpWorkspace check_ws;
  EXPECT_TRUE(SameBits(partial, mlp.ForwardBatchInto(mixed, &check_ws)));
  EXPECT_EQ(ws.forward_calls, 2);
  EXPECT_EQ(ws.forward_rows, 5);
}

TEST(MlpMemoTest, NetworksOnOneWorkspaceNeverShareEntries) {
  // Same architecture, different weights: the memo key is the network as
  // well as the row.
  Rng rng(61);
  Mlp a(MemoTestConfig(), &rng);
  Mlp b(MemoTestConfig(), &rng);
  Matrix row = RandomMatrix(1, 6, &rng);
  MlpWorkspace plain_ws;
  const Matrix expected_a = a.ForwardInto(row, &plain_ws);
  const Matrix expected_b = b.ForwardInto(row, &plain_ws);
  ASSERT_FALSE(SameBits(expected_a, expected_b));

  MlpWorkspace ws;
  MlpMemoScope memo(&ws);
  EXPECT_TRUE(SameBits(a.ForwardInto(row, &ws), expected_a));
  EXPECT_TRUE(SameBits(b.ForwardInto(row, &ws), expected_b));
  EXPECT_EQ(ws.forward_calls, 2);
  EXPECT_TRUE(SameBits(a.ForwardInto(row, &ws), expected_a));
  EXPECT_TRUE(SameBits(b.ForwardInto(row, &ws), expected_b));
  EXPECT_EQ(ws.forward_calls, 2);
  EXPECT_EQ(ws.memo.size(), 2);
}

TEST(MlpMemoTest, OverwritingTheReturnedMatrixDoesNotReachTheMemo) {
  // Callers mask logits in place in the returned matrix; a later hit must
  // still return the network's own output.
  Rng rng(67);
  Mlp mlp(MemoTestConfig(), &rng);
  Matrix row = RandomMatrix(1, 6, &rng);
  MlpWorkspace plain_ws;
  const Matrix expected = mlp.ForwardInto(row, &plain_ws);

  MlpWorkspace ws;
  MlpMemoScope memo(&ws);
  mlp.ForwardInto(row, &ws).Fill(-1e9);   // Forwarded, then overwritten.
  EXPECT_TRUE(SameBits(mlp.ForwardInto(row, &ws), expected));
  mlp.ForwardInto(row, &ws).Fill(-1e9);   // A hit, then overwritten.
  EXPECT_TRUE(SameBits(mlp.ForwardInto(row, &ws), expected));
  EXPECT_EQ(ws.forward_calls, 1);
}

TEST(MlpMemoTest, NoEntryOutlivesItsScope) {
  // The lifetime rule that keeps the memo safe across weight updates:
  // closing the scope clears it, and a scope opened after the weights
  // changed returns the new weights' outputs.
  Rng rng(71);
  Mlp mlp(MemoTestConfig(), &rng);
  Mlp other(MemoTestConfig(), &rng);
  Matrix row = RandomMatrix(1, 6, &rng);
  MlpWorkspace ws;
  Matrix before;
  {
    MlpMemoScope memo(&ws);
    before = mlp.ForwardInto(row, &ws);
    EXPECT_EQ(ws.memo.size(), 1);
  }
  EXPECT_EQ(ws.memo.size(), 0);
  mlp.CopyWeightsFrom(other);  // A weight update between two searches.
  MlpWorkspace plain_ws;
  const Matrix after = mlp.ForwardInto(row, &plain_ws);
  ASSERT_FALSE(SameBits(before, after));
  {
    MlpMemoScope memo(&ws);
    EXPECT_TRUE(SameBits(mlp.ForwardInto(row, &ws), after));
  }
  EXPECT_EQ(ws.forward_calls, 2);
}

TEST(MlpMemoTest, HashSeparatesRowsOfZerosAndOnes) {
  // 0.0 and 1.0 differ only in their exponent bits, and state rows are
  // mostly such features. Distinct rows must still spread over the whole
  // hash range, or every lookup walks a long probe chain.
  Rng rng(79);
  std::set<std::vector<double>> rows;
  while (rows.size() < 2000) {
    std::vector<double> row(254, 0.0);
    for (double& x : row) x = rng.UniformInt(0, 7) == 0 ? 1.0 : 0.0;
    rows.insert(std::move(row));
  }
  std::set<uint64_t> hashes;
  for (const std::vector<double>& row : rows) {
    hashes.insert(MlpMemo::Hash(nullptr, row.data(), 254));
  }
  EXPECT_EQ(hashes.size(), rows.size());
}

TEST(MlpMemoTest, AFullMemoForwardsUnmemoized) {
  // The memo holds at most MlpMemo::kMaxDoubles of rows, so a search of
  // any width keeps (and leaves on its workspace) a bounded memo. Once a
  // call would pass the bound, calls forward as if no scope were open,
  // with the same bits.
  MlpConfig config;
  config.input_dim = 4095;
  config.output_dim = 1;
  Rng rng(73);
  Mlp mlp(config, &rng);
  const int64_t fit = MlpMemo::kMaxDoubles / 4096;  // Rows the memo holds.
  Matrix rows = RandomMatrix(fit + 8, 4095, &rng);
  MlpWorkspace plain_ws;
  const Matrix expected = mlp.ForwardBatchInto(rows, &plain_ws);

  MlpWorkspace ws;
  MlpMemoScope memo(&ws);
  for (int64_t r = 0; r < rows.rows(); ++r) {
    EXPECT_TRUE(SameBits(mlp.ForwardInto(rows.Row(r), &ws), expected.Row(r)))
        << r;
  }
  EXPECT_EQ(ws.memo.size(), fit);
  EXPECT_EQ(ws.forward_calls, fit + 8);
  // The full memo is bypassed, for a row it holds too.
  EXPECT_TRUE(SameBits(mlp.ForwardInto(rows.Row(0), &ws), expected.Row(0)));
  EXPECT_EQ(ws.forward_calls, fit + 9);
  EXPECT_EQ(ws.memo.size(), fit);
}

TEST(MlpMemoDeathTest, SecondScopeOnOneWorkspaceAborts) {
  MlpWorkspace ws;
  MlpMemoScope memo(&ws);
  EXPECT_DEATH({ MlpMemoScope nested(&ws); }, "memo scope is already open");
}

TEST(MlpTest, ForwardIntoDoesNotDisturbBackwardCaches) {
  // Training pattern: Forward (caches) ... concurrent-style ForwardInto
  // calls ... Backward. The workspace path must leave the caches intact.
  Rng rng(37);
  MlpConfig config;
  config.input_dim = 5;
  config.hidden_dims = {8};
  config.output_dim = 2;
  Mlp a(config, &rng);
  Mlp b(a);  // Identical weights; reference runs Forward+Backward only.
  Matrix x(4, 5);
  for (int64_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Normal();
  Matrix grad(4, 2);
  grad.Fill(0.25);

  (void)b.Forward(x);
  b.ZeroGrads();
  b.Backward(grad);

  (void)a.Forward(x);
  MlpWorkspace ws;
  Matrix probe(1, 5);
  probe.Fill(2.5);
  (void)a.ForwardInto(probe, &ws);  // Must not clobber the caches.
  a.ZeroGrads();
  a.Backward(grad);

  auto ga = a.Grads();
  auto gb = b.Grads();
  ASSERT_EQ(ga.size(), gb.size());
  for (size_t i = 0; i < ga.size(); ++i) {
    for (int64_t j = 0; j < ga[i]->size(); ++j) {
      EXPECT_EQ(ga[i]->data()[j], gb[i]->data()[j]);
    }
  }
}

TEST(MlpTest, ConcurrentForwardIntoIsRaceFreeAndExact) {
  Rng rng(41);
  MlpConfig config;
  config.input_dim = 12;
  config.hidden_dims = {32, 32};
  config.output_dim = 6;
  const Mlp mlp = [&] {
    Mlp net(config, &rng);
    return net;
  }();

  std::vector<Matrix> inputs;
  for (int i = 0; i < 16; ++i) {
    Matrix x(1, 12);
    for (int64_t j = 0; j < x.size(); ++j) x.data()[j] = rng.Normal();
    inputs.push_back(std::move(x));
  }
  std::vector<Matrix> expected;
  {
    MlpWorkspace ws;
    for (const Matrix& x : inputs) expected.push_back(mlp.ForwardInto(x, &ws));
  }

  ThreadPool pool(4);
  std::vector<std::future<void>> futures;
  for (int w = 0; w < 4; ++w) {
    futures.push_back(pool.Submit([&mlp, &inputs, &expected, w] {
      MlpWorkspace ws;
      for (int rep = 0; rep < 50; ++rep) {
        for (size_t i = static_cast<size_t>(w); i < inputs.size(); i += 4) {
          const Matrix& out = mlp.ForwardInto(inputs[i], &ws);
          for (int64_t j = 0; j < out.size(); ++j) {
            if (out.data()[j] != expected[i].data()[j]) {
              throw std::runtime_error("concurrent forward diverged");
            }
          }
        }
      }
    }));
  }
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

}  // namespace
}  // namespace hfq
