// First-order optimizers that update a set of parameter matrices from their
// accumulated gradients.
#ifndef HFQ_NN_OPTIMIZER_H_
#define HFQ_NN_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "nn/matrix.h"

namespace hfq {

/// Interface shared by SGD and Adam.
class GradientOptimizer {
 public:
  virtual ~GradientOptimizer() = default;

  /// Applies one update step. `params` and `grads` must be parallel vectors
  /// with stable identity/shapes across calls (state is keyed by position).
  virtual void Step(const std::vector<Matrix*>& params,
                    const std::vector<Matrix*>& grads) = 0;

  virtual void set_learning_rate(double lr) = 0;
  virtual double learning_rate() const = 0;
};

/// Clips gradients to a maximum global L2 norm; returns the pre-clip norm.
double ClipGradientsByGlobalNorm(const std::vector<Matrix*>& grads,
                                 double max_norm);

/// Stochastic gradient descent with classical momentum.
class Sgd : public GradientOptimizer {
 public:
  explicit Sgd(double learning_rate, double momentum = 0.0)
      : lr_(learning_rate), momentum_(momentum) {}

  void Step(const std::vector<Matrix*>& params,
            const std::vector<Matrix*>& grads) override;
  void set_learning_rate(double lr) override { lr_ = lr; }
  double learning_rate() const override { return lr_; }

 private:
  double lr_;
  double momentum_;
  std::vector<Matrix> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam : public GradientOptimizer {
 public:
  explicit Adam(double learning_rate, double beta1 = 0.9,
                double beta2 = 0.999, double epsilon = 1e-8)
      : lr_(learning_rate), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {}

  void Step(const std::vector<Matrix*>& params,
            const std::vector<Matrix*>& grads) override;
  void set_learning_rate(double lr) override { lr_ = lr; }
  double learning_rate() const override { return lr_; }

  /// Resets moment estimates (used when the reward scale changes abruptly,
  /// e.g. an unscaled Phase 1 -> Phase 2 switch in bootstrapping).
  void ResetState();

  /// The first and second moment estimates, parallel to the parameters of
  /// the last Step (empty before the first).
  const std::vector<Matrix>& first_moments() const { return m_; }
  const std::vector<Matrix>& second_moments() const { return v_; }

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double epsilon_;
  int64_t t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace hfq

#endif  // HFQ_NN_OPTIMIZER_H_
