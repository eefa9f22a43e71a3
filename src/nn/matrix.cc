#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "nn/simd.h"

namespace hfq {

Matrix Matrix::RowVector(const std::vector<double>& values) {
  Matrix m(1, static_cast<int64_t>(values.size()));
  for (size_t i = 0; i < values.size(); ++i) m.data_[i] = values[i];
  return m;
}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  HFQ_CHECK(!rows.empty());
  return StackRows(static_cast<int64_t>(rows.size()),
                   static_cast<int64_t>(rows[0].size()),
                   [&rows](int64_t r) -> const std::vector<double>& {
                     return rows[static_cast<size_t>(r)];
                   });
}

Matrix Matrix::Constant(int64_t rows, int64_t cols, double value) {
  Matrix m(rows, cols);
  m.Fill(value);
  return m;
}

Matrix Matrix::XavierUniform(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (auto& v : m.data_) v = rng->Uniform(-limit, limit);
  return m;
}

Matrix Matrix::HeNormal(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  double stddev = std::sqrt(2.0 / static_cast<double>(rows));
  for (auto& v : m.data_) v = rng->Normal(0.0, stddev);
  return m;
}

void Matrix::ResizeZeroed(int64_t rows, int64_t cols) {
  HFQ_CHECK(rows >= 0 && cols >= 0);
  rows_ = rows;
  cols_ = cols;
  data_.assign(static_cast<size_t>(rows * cols), 0.0);
}

void Matrix::Zero() { Fill(0.0); }

void Matrix::Fill(double value) {
  for (auto& v : data_) v = value;
}

void Matrix::Add(const Matrix& other) {
  HFQ_CHECK(SameShape(other));
  double* d = data();
  const double* o = other.data();
  simd::ForEach(size(), [d, o]<int W>(int64_t i) {
    simd::Store<W>(d + i, simd::Load<W>(d + i) + simd::Load<W>(o + i));
  });
}

void Matrix::Axpy(double scale, const Matrix& other) {
  HFQ_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += scale * other.data_[i];
}

void Matrix::Scale(double scale) {
  double* d = data();
  simd::ForEach(size(), [d, scale]<int W>(int64_t i) {
    simd::Store<W>(d + i, simd::Load<W>(d + i) * scale);
  });
}

void Matrix::Hadamard(const Matrix& other) {
  HFQ_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

double Matrix::Sum() const {
  double total = 0.0;
  for (double v : data_) total += v;
  return total;
}

double Matrix::SquaredNorm() const {
  double total = 0.0;
  for (double v : data_) total += v * v;
  return total;
}

Matrix Matrix::Row(int64_t r) const {
  HFQ_CHECK(r >= 0 && r < rows_);
  Matrix out(1, cols_);
  for (int64_t c = 0; c < cols_; ++c) out.At(0, c) = At(r, c);
  return out;
}

void Matrix::SetRow(int64_t r, const Matrix& row) {
  HFQ_CHECK(r >= 0 && r < rows_);
  HFQ_CHECK(row.rows() == 1 && row.cols() == cols_);
  for (int64_t c = 0; c < cols_; ++c) At(r, c) = row.At(0, c);
}

std::string Matrix::ToString(int max_rows, int max_cols) const {
  std::ostringstream out;
  out << rows_ << "x" << cols_ << " [";
  for (int64_t r = 0; r < std::min<int64_t>(rows_, max_rows); ++r) {
    out << (r == 0 ? "" : "; ");
    for (int64_t c = 0; c < std::min<int64_t>(cols_, max_cols); ++c) {
      if (c) out << ", ";
      out << At(r, c);
    }
    if (cols_ > max_cols) out << ", ...";
  }
  if (rows_ > max_rows) out << "; ...";
  out << "]";
  return out.str();
}

namespace {

using simd::kLanes;
using simd::Vec;

// Register tiles. A tile of kTileRows rows by kTileVectors kLanes-wide
// vectors holds its accumulators in vector registers for the whole shared
// dimension: enough independent sums to hide the multiply-add latency,
// while the accumulators, one step's B vectors and a broadcast A value
// still fit the target's registers (32 with AVX-512, 16 with AVX and SSE2;
// without FMA each product also needs a scratch register).
constexpr int kTileRows = 4;
#if defined(__AVX512F__)
constexpr int kTileVectors = 4;  // 4 x 32 columns, 16 accumulators.
#elif defined(__AVX__) && defined(__FMA__)
constexpr int kTileVectors = 3;  // 4 x 12 columns, 12 accumulators.
#else
constexpr int kTileVectors = 2;  // 4 x 4 columns with SSE2, 8 accumulators.
#endif
constexpr int64_t kTileCols = int64_t{kTileVectors} * kLanes;

// One product C = A B, C (m x n) row-major with row stride n. A is read
// through strides, A(i, p) = a[i * a_row + p * a_col], so one kernel serves
// x W (a_col = 1) and X^T G (a_row = 1); B's rows are contiguous,
// B(p, j) = b[p * b_row + j].
struct Product {
  const double* a;
  int64_t a_row;
  int64_t a_col;
  const double* b;
  int64_t b_row;
  double* c;
  int64_t n;
  /// The shared-dimension indices of the current row block, ascending.
  const int64_t* steps;
  int64_t num_steps;
};

// The micro-kernel: the R x (NV * W) block of C at (i0, j0). Each element
// is accumulated from +0.0 over the block's steps in ascending order, as
// acc += A(i, p) * B(p, j), exactly like the scalar triple loop.
template <int R, int W, int NV>
void Tile(const Product& x, int64_t i0, int64_t j0) {
  Vec<W> acc[R][NV] = {};
  const double* a = x.a + i0 * x.a_row;
  const double* b = x.b + j0;
  for (int64_t q = 0; q < x.num_steps; ++q) {
    const int64_t p = x.steps[q];
    const double* b_row = b + p * x.b_row;
    Vec<W> bv[NV];
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) bv[v] = simd::Load<W>(b_row + v * W);
    const double* a_col = a + p * x.a_col;
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const double ar = a_col[r * x.a_row];
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) acc[r][v] += ar * bv[v];
    }
  }
  double* c = x.c + i0 * x.n + j0;
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) simd::Store<W>(c + r * x.n + v * W, acc[r][v]);
  }
}

// Columns [j, n) when fewer than kLanes remain: one tile of each narrower
// power-of-two width that fits, so at most one column runs scalar.
template <int R, int W>
void NarrowColumns(const Product& x, int64_t i0, int64_t j) {
  if (x.n - j >= W) {
    Tile<R, W, 1>(x, i0, j);
    j += W;
  }
  if constexpr (W > 1) NarrowColumns<R, W / 2>(x, i0, j);
}

// The remainder tile of `vectors` (< kTileVectors) whole kLanes vectors.
template <int R, int NV>
void RemainderVectors(const Product& x, int64_t i0, int64_t j,
                      int64_t vectors) {
  if constexpr (NV > 0) {
    if (vectors == NV) {
      Tile<R, kLanes, NV>(x, i0, j);
    } else {
      RemainderVectors<R, NV - 1>(x, i0, j, vectors);
    }
  }
}

// Rows [i0, i0 + R) of C. A zero A(i, p) adds an exact zero to a finite
// sum, so a step where every row of the block reads zero is skipped: the
// sparse 0/1 feature rows of a first layer skip most of their steps.
template <int R>
void RowBlock(Product x, int64_t i0, int64_t k, int64_t* steps) {
  const double* a = x.a + i0 * x.a_row;
  int64_t count = 0;
  for (int64_t p = 0; p < k; ++p) {
    bool nonzero = false;
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) nonzero |= a[r * x.a_row + p * x.a_col] != 0.0;
    steps[count] = p;
    count += nonzero ? 1 : 0;
  }
  x.steps = steps;
  x.num_steps = count;
  int64_t j = 0;
  for (; j + kTileCols <= x.n; j += kTileCols) {
    Tile<R, kLanes, kTileVectors>(x, i0, j);
  }
  const int64_t vectors = (x.n - j) / kLanes;
  RemainderVectors<R, kTileVectors - 1>(x, i0, j, vectors);
  NarrowColumns<R, kLanes / 2>(x, i0, j + vectors * kLanes);
}

// C (m x n) = A (m x k) B (k x n); every element of C is written.
void Gemm(int64_t m, int64_t n, int64_t k, const double* a, int64_t a_row,
          int64_t a_col, const double* b, int64_t b_row, double* c) {
  Product x{a, a_row, a_col, b, b_row, c, n, nullptr, 0};
  std::vector<int64_t> steps(static_cast<size_t>(k));
  int64_t i0 = 0;
  for (; i0 + kTileRows <= m; i0 += kTileRows) {
    RowBlock<kTileRows>(x, i0, k, steps.data());
  }
  switch (m - i0) {
    case 3:
      RowBlock<3>(x, i0, k, steps.data());
      break;
    case 2:
      RowBlock<2>(x, i0, k, steps.data());
      break;
    case 1:
      RowBlock<1>(x, i0, k, steps.data());
      break;
    default:
      break;
  }
}

}  // namespace

Matrix Matmul(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatmulInto(a, b, &out);
  return out;
}

void MatmulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  HFQ_CHECK(a.cols() == b.rows());
  HFQ_CHECK(out != &a && out != &b);
  out->ResizeZeroed(a.rows(), b.cols());
  Gemm(a.rows(), b.cols(), a.cols(), a.data(), a.cols(), 1, b.data(),
       b.cols(), out->data());
}

Matrix MatmulTransA(const Matrix& a, const Matrix& b) {
  HFQ_CHECK(a.rows() == b.rows());
  Matrix out(a.cols(), b.cols());
  Gemm(a.cols(), b.cols(), a.rows(), a.data(), 1, a.cols(), b.data(),
       b.cols(), out.data());
  return out;
}

Matrix MatmulTransB(const Matrix& a, const Matrix& b) {
  HFQ_CHECK(a.cols() == b.cols());
  // The kernel streams rows of its right operand, so b^T is packed first.
  const Matrix bt = Transposed(b);
  Matrix out(a.rows(), b.rows());
  Gemm(a.rows(), b.rows(), a.cols(), a.data(), a.cols(), 1, bt.data(),
       bt.cols(), out.data());
  return out;
}

Matrix Transposed(const Matrix& m) {
  const int64_t rows = m.rows(), cols = m.cols();
  Matrix out(cols, rows);
  const double* src = m.data();
  double* dst = out.data();
  // Square blocks keep both the reads and the writes within a few cache
  // lines per block.
  constexpr int64_t kBlock = 16;
  for (int64_t r0 = 0; r0 < rows; r0 += kBlock) {
    const int64_t r1 = std::min(rows, r0 + kBlock);
    for (int64_t c0 = 0; c0 < cols; c0 += kBlock) {
      const int64_t c1 = std::min(cols, c0 + kBlock);
      for (int64_t r = r0; r < r1; ++r) {
        for (int64_t c = c0; c < c1; ++c) dst[c * rows + r] = src[r * cols + c];
      }
    }
  }
  return out;
}

Matrix ColumnSum(const Matrix& m) {
  Matrix out(1, m.cols());
  // Row by row, so each column sums its rows in ascending order.
  double* sum = out.data();
  for (int64_t r = 0; r < m.rows(); ++r) {
    const double* row = m.data() + r * m.cols();
    simd::ForEach(m.cols(), [sum, row]<int W>(int64_t c) {
      simd::Store<W>(sum + c, simd::Load<W>(sum + c) + simd::Load<W>(row + c));
    });
  }
  return out;
}

void AddRowVectorInPlace(Matrix* m, const Matrix& row) {
  HFQ_CHECK(row.rows() == 1 && row.cols() == m->cols());
  const double* add = row.data();
  for (int64_t r = 0; r < m->rows(); ++r) {
    double* dst = m->data() + r * m->cols();
    simd::ForEach(m->cols(), [dst, add]<int W>(int64_t c) {
      simd::Store<W>(dst + c, simd::Load<W>(dst + c) + simd::Load<W>(add + c));
    });
  }
}

}  // namespace hfq
