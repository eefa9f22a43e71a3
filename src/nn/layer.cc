#include "nn/layer.h"

#include <algorithm>
#include <cmath>

#include "nn/simd.h"

namespace hfq {

Linear::Linear(int64_t in_dim, int64_t out_dim, Rng* rng)
    : weight_(Matrix::HeNormal(in_dim, out_dim, rng)),
      bias_(1, out_dim),
      grad_weight_(in_dim, out_dim),
      grad_bias_(1, out_dim) {}

Matrix Linear::Forward(const Matrix& input) {
  cached_input_ = input;
  Matrix out;
  ForwardInto(input, &out);
  return out;
}

void Linear::ForwardInto(const Matrix& input, Matrix* out) const {
  HFQ_CHECK(input.cols() == weight_.rows());
  MatmulInto(input, weight_, out);
  AddRowVectorInPlace(out, bias_);
}

Matrix Linear::Backward(const Matrix& grad_output) {
  BackwardParamsOnly(grad_output);
  // grad_input = grad_output * W^T.
  return MatmulTransB(grad_output, weight_);
}

void Linear::BackwardParamsOnly(const Matrix& grad_output) {
  // The gradient batch must match the cached forward batch row-for-row.
  HFQ_CHECK(grad_output.rows() == cached_input_.rows());
  HFQ_CHECK(grad_output.cols() == weight_.cols());
  grad_weight_.Add(MatmulTransA(cached_input_, grad_output));
  grad_bias_.Add(ColumnSum(grad_output));
}

std::unique_ptr<Layer> Linear::Clone() const {
  auto copy = std::make_unique<Linear>(*this);
  return copy;
}

Matrix Relu::Forward(const Matrix& input) {
  cached_input_ = input;
  Matrix out;
  ForwardInto(input, &out);
  return out;
}

void Relu::ForwardInto(const Matrix& input, Matrix* out) const {
  *out = input;
  // std::max(0.0, x): x when 0 < x, else +0.0 (NaN and -0.0 included).
  double* d = out->data();
  simd::ForEach(out->size(), [d]<int W>(int64_t i) {
    const simd::Vec<W> x = simd::Load<W>(d + i);
    simd::Store<W>(d + i, 0.0 < x ? x : simd::Vec<W>{});
  });
}

Matrix Relu::Backward(const Matrix& grad_output) {
  HFQ_CHECK(grad_output.SameShape(cached_input_));
  Matrix grad = grad_output;
  double* g = grad.data();
  const double* in = cached_input_.data();
  simd::ForEach(grad.size(), [g, in]<int W>(int64_t i) {
    const simd::Vec<W> x = simd::Load<W>(in + i);
    simd::Store<W>(g + i, x <= 0.0 ? simd::Vec<W>{} : simd::Load<W>(g + i));
  });
  return grad;
}

std::unique_ptr<Layer> Relu::Clone() const {
  return std::make_unique<Relu>(*this);
}

Matrix TanhLayer::Forward(const Matrix& input) {
  Matrix out;
  ForwardInto(input, &out);
  cached_output_ = out;
  return out;
}

void TanhLayer::ForwardInto(const Matrix& input, Matrix* out) const {
  *out = input;
  for (int64_t i = 0; i < out->size(); ++i) {
    out->data()[i] = std::tanh(out->data()[i]);
  }
}

Matrix TanhLayer::Backward(const Matrix& grad_output) {
  HFQ_CHECK(grad_output.SameShape(cached_output_));
  Matrix grad = grad_output;
  for (int64_t i = 0; i < grad.size(); ++i) {
    double y = cached_output_.data()[i];
    grad.data()[i] *= (1.0 - y * y);
  }
  return grad;
}

std::unique_ptr<Layer> TanhLayer::Clone() const {
  return std::make_unique<TanhLayer>(*this);
}

Matrix Sigmoid::Forward(const Matrix& input) {
  Matrix out;
  ForwardInto(input, &out);
  cached_output_ = out;
  return out;
}

void Sigmoid::ForwardInto(const Matrix& input, Matrix* out) const {
  *out = input;
  for (int64_t i = 0; i < out->size(); ++i) {
    out->data()[i] = 1.0 / (1.0 + std::exp(-out->data()[i]));
  }
}

Matrix Sigmoid::Backward(const Matrix& grad_output) {
  HFQ_CHECK(grad_output.SameShape(cached_output_));
  Matrix grad = grad_output;
  for (int64_t i = 0; i < grad.size(); ++i) {
    double y = cached_output_.data()[i];
    grad.data()[i] *= y * (1.0 - y);
  }
  return grad;
}

std::unique_ptr<Layer> Sigmoid::Clone() const {
  return std::make_unique<Sigmoid>(*this);
}

Matrix Softmax(const Matrix& logits) {
  Matrix out = logits;
  for (int64_t r = 0; r < out.rows(); ++r) {
    double max_v = out.At(r, 0);
    for (int64_t c = 1; c < out.cols(); ++c) {
      max_v = std::max(max_v, out.At(r, c));
    }
    double total = 0.0;
    for (int64_t c = 0; c < out.cols(); ++c) {
      double e = std::exp(out.At(r, c) - max_v);
      out.At(r, c) = e;
      total += e;
    }
    for (int64_t c = 0; c < out.cols(); ++c) out.At(r, c) /= total;
  }
  return out;
}

Matrix LogSoftmax(const Matrix& logits) {
  Matrix out = logits;
  for (int64_t r = 0; r < out.rows(); ++r) {
    double max_v = out.At(r, 0);
    for (int64_t c = 1; c < out.cols(); ++c) {
      max_v = std::max(max_v, out.At(r, c));
    }
    double total = 0.0;
    for (int64_t c = 0; c < out.cols(); ++c) {
      total += std::exp(out.At(r, c) - max_v);
    }
    double log_z = max_v + std::log(total);
    for (int64_t c = 0; c < out.cols(); ++c) out.At(r, c) -= log_z;
  }
  return out;
}

}  // namespace hfq
