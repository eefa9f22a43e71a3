#include "nn/optimizer.h"

#include <cmath>

#include "nn/simd.h"
#include "util/check.h"

namespace hfq {

double ClipGradientsByGlobalNorm(const std::vector<Matrix*>& grads,
                                 double max_norm) {
  HFQ_CHECK(max_norm > 0.0);
  double total = 0.0;
  for (Matrix* g : grads) total += g->SquaredNorm();
  double norm = std::sqrt(total);
  if (norm > max_norm) {
    double scale = max_norm / norm;
    for (Matrix* g : grads) g->Scale(scale);
  }
  return norm;
}

void Sgd::Step(const std::vector<Matrix*>& params,
               const std::vector<Matrix*>& grads) {
  HFQ_CHECK(params.size() == grads.size());
  if (velocity_.empty()) {
    for (Matrix* p : params) velocity_.emplace_back(p->rows(), p->cols());
  }
  HFQ_CHECK(velocity_.size() == params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    Matrix& vel = velocity_[i];
    HFQ_CHECK(vel.SameShape(*grads[i]));
    vel.Scale(momentum_);
    vel.Axpy(1.0, *grads[i]);
    params[i]->Axpy(-lr_, vel);
  }
}

void Adam::Step(const std::vector<Matrix*>& params,
                const std::vector<Matrix*>& grads) {
  HFQ_CHECK(params.size() == grads.size());
  if (m_.empty()) {
    for (Matrix* p : params) {
      m_.emplace_back(p->rows(), p->cols());
      v_.emplace_back(p->rows(), p->cols());
    }
  }
  HFQ_CHECK(m_.size() == params.size());
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const double beta1 = beta1_, beta2 = beta2_, lr = lr_, eps = epsilon_;
  for (size_t i = 0; i < params.size(); ++i) {
    Matrix* g = grads[i];
    HFQ_CHECK(m_[i].SameShape(*g));
    double* p = params[i]->data();
    double* m = m_[i].data();
    double* v = v_[i].data();
    const double* gd = g->data();
    // The bias corrections stay divisions and the step a square root and a
    // division, as in the scalar update: each is correctly rounded lane by
    // lane, where a multiply by a reciprocal would not be.
    simd::ForEach(g->size(), [=]<int W>(int64_t k) {
      using V = simd::Vec<W>;
      const V gk = simd::Load<W>(gd + k);
      const V mk = beta1 * simd::Load<W>(m + k) + (1.0 - beta1) * gk;
      const V vk = beta2 * simd::Load<W>(v + k) + (1.0 - beta2) * gk * gk;
      simd::Store<W>(m + k, mk);
      simd::Store<W>(v + k, vk);
      const V mhat = mk / bc1;
      const V vhat = vk / bc2;
      simd::Store<W>(p + k, simd::Load<W>(p + k) -
                                lr * mhat / (simd::Sqrt<W>(vhat) + eps));
    });
  }
}

void Adam::ResetState() {
  t_ = 0;
  m_.clear();
  v_.clear();
}

}  // namespace hfq
