// Reward signals for plan-producing MDPs. The paper's three regimes:
//   * cost-model reward (ReJOIN: 1/M(t); also -log10 cost for the core
//     experiments) — dense to compute, biased by estimation error;
//   * latency reward — the "true" objective, expensive and differently
//     scaled;
//   * scaled latency (Section 5.2's formula): latency mapped linearly into
//     the cost range observed at the end of Phase 1,
//       r_l = Cmin + (l - Lmin)/(Lmax - Lmin) * (Cmax - Cmin),
//     so the reward regime switch does not shock the learner.
#ifndef HFQ_CORE_REWARD_H_
#define HFQ_CORE_REWARD_H_

#include <string>

#include "exec/latency_model.h"
#include "plan/physical_plan.h"

namespace hfq {

/// One scored plan.
struct PlanScore {
  double reward = 0.0;
  /// The raw metric the reward was computed from: the plan's cost for cost
  /// rewards, its simulated latency in ms for latency rewards.
  double metric = 0.0;
};

/// Scores completed, annotated physical plans; higher reward = better plan.
/// Only learners call it, once per finished training episode: the
/// policy-gradient trainer (core/pg_trainer.h) and the teacher loop's demo
/// replay (rl/teacher_loop.h). Implementations here are thread-safe: Score
/// reads the plan it is given and touches only per-call state, so one
/// signal instance may be shared by concurrent rollout workers.
class RewardSignal {
 public:
  virtual ~RewardSignal() = default;

  /// Reward for `plan`, annotated by the cost model that built it, with
  /// the metric behind it.
  virtual PlanScore Score(const Query& query, const PlanNode& plan) = 0;

  virtual std::string name() const = 0;
};

/// reward = scale / cost — the ReJOIN case-study reward (1/M(t)), read from
/// the plan's est_cost.
class ReciprocalCostReward : public RewardSignal {
 public:
  explicit ReciprocalCostReward(double scale = 1e5);
  PlanScore Score(const Query& query, const PlanNode& plan) override;
  std::string name() const override { return "reciprocal_cost"; }

 private:
  double scale_;
};

/// reward = -log10(cost) — a range-stable cost reward for the Section 5
/// experiments, read from the plan's est_cost.
class NegLogCostReward : public RewardSignal {
 public:
  PlanScore Score(const Query& query, const PlanNode& plan) override;
  std::string name() const override { return "neg_log_cost"; }
};

/// reward = -log10(simulated latency ms) — the "true" objective.
class NegLogLatencyReward : public RewardSignal {
 public:
  /// `simulator` must outlive the signal.
  explicit NegLogLatencyReward(LatencySimulator* simulator);
  PlanScore Score(const Query& query, const PlanNode& plan) override;
  std::string name() const override { return "neg_log_latency"; }

 private:
  LatencySimulator* simulator_;
};

/// Section 5.2's reward scaling: latency is linearly mapped into the
/// cost range observed during Phase 1 before the -log10. Uncalibrated
/// instances behave like NegLogLatencyReward.
class ScaledLatencyReward : public RewardSignal {
 public:
  /// `simulator` must outlive the signal.
  explicit ScaledLatencyReward(LatencySimulator* simulator);

  /// Installs the Phase-1 observation ranges (paper: Cmin/Cmax are the
  /// min/max observed optimizer costs, Lmin/Lmax the min/max observed
  /// latencies near the end of Phase 1).
  void Calibrate(double cost_min, double cost_max, double latency_min,
                 double latency_max);

  bool calibrated() const { return calibrated_; }

  /// The scaled value r_l for a raw latency (exposed for tests).
  double ScaleLatency(double latency_ms) const;

  PlanScore Score(const Query& query, const PlanNode& plan) override;
  std::string name() const override { return "scaled_latency"; }

 private:
  LatencySimulator* simulator_;
  bool calibrated_ = false;
  double cost_min_ = 0.0, cost_max_ = 1.0;
  double latency_min_ = 0.0, latency_max_ = 1.0;
};

}  // namespace hfq

#endif  // HFQ_CORE_REWARD_H_
