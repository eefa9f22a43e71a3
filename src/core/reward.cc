#include "core/reward.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace hfq {

ReciprocalCostReward::ReciprocalCostReward(double scale) : scale_(scale) {}

PlanScore ReciprocalCostReward::Score(const Query& query,
                                     const PlanNode& plan) {
  (void)query;
  return {scale_ / std::max(1.0, plan.est_cost), plan.est_cost};
}

PlanScore NegLogCostReward::Score(const Query& query, const PlanNode& plan) {
  (void)query;
  return {-std::log10(std::max(1.0, plan.est_cost)), plan.est_cost};
}

NegLogLatencyReward::NegLogLatencyReward(LatencySimulator* simulator)
    : simulator_(simulator) {
  HFQ_CHECK(simulator != nullptr);
}

PlanScore NegLogLatencyReward::Score(const Query& query,
                                    const PlanNode& plan) {
  const double latency_ms = simulator_->SimulateMs(query, plan);
  return {-std::log10(std::max(1.0, latency_ms)), latency_ms};
}

ScaledLatencyReward::ScaledLatencyReward(LatencySimulator* simulator)
    : simulator_(simulator) {
  HFQ_CHECK(simulator != nullptr);
}

void ScaledLatencyReward::Calibrate(double cost_min, double cost_max,
                                    double latency_min, double latency_max) {
  HFQ_CHECK(cost_max >= cost_min);
  HFQ_CHECK(latency_max >= latency_min);
  cost_min_ = cost_min;
  cost_max_ = cost_max;
  latency_min_ = latency_min;
  latency_max_ = latency_max;
  calibrated_ = true;
}

double ScaledLatencyReward::ScaleLatency(double latency_ms) const {
  if (!calibrated_) return latency_ms;
  double denom = std::max(1e-9, latency_max_ - latency_min_);
  // The paper's formula, applied verbatim. Latencies outside the observed
  // Phase-1 band extrapolate linearly (a plan far worse than anything seen
  // in Phase 1 should look far worse than any Phase-1 cost).
  return cost_min_ +
         (latency_ms - latency_min_) / denom * (cost_max_ - cost_min_);
}

PlanScore ScaledLatencyReward::Score(const Query& query,
                                    const PlanNode& plan) {
  const double latency_ms = simulator_->SimulateMs(query, plan);
  double scaled = std::max(1.0, ScaleLatency(latency_ms));
  return {-std::log10(scaled), latency_ms};
}

}  // namespace hfq
