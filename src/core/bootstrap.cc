#include "core/bootstrap.h"

#include <algorithm>

#include "util/check.h"

namespace hfq {

const char* BootstrapSwitchModeName(BootstrapSwitchMode mode) {
  switch (mode) {
    case BootstrapSwitchMode::kUnscaled:
      return "unscaled";
    case BootstrapSwitchMode::kScaled:
      return "scaled";
    case BootstrapSwitchMode::kScaledTransfer:
      return "scaled+transfer";
  }
  return "?";
}

BootstrapTrainer::BootstrapTrainer(FullPipelineEnv* env, Engine* engine,
                                   BootstrapConfig config, uint64_t seed)
    : engine_(engine),
      config_(config),
      latency_reward_(&engine->latency()),
      scaled_reward_(&engine->latency()),
      trainer_(env, &cost_reward_, config.pg, config.episodes_per_update,
               config.num_rollout_workers, seed) {
  HFQ_CHECK(env != nullptr && engine != nullptr);
}

void BootstrapTrainer::RunPhase(
    const std::vector<Query>& workload, int episodes, int phase,
    const std::function<void(const BootstrapEpisodeStats&)>& on_episode) {
  std::vector<BootstrapEpisodeStats> stats(
      static_cast<size_t>(std::max(0, episodes)));
  // Both latency rewards simulate each plan to score it, and the score
  // carries that latency; the cost reward does not, so Phase 1 (and its
  // calibration) simulates in the harvest (the oracle is thread-safe).
  const bool scored_by_latency = trainer_.reward() != &cost_reward_;
  trainer_.Train(
      workload, episodes,
      [&](const TrainedEpisode& trained) {
        BootstrapEpisodeStats& s = stats[static_cast<size_t>(trained.index)];
        s.episode = episode_counter_++;
        s.phase = phase;
        s.query_name = trained.query->name;
        s.reward = trained.reward;
        if (phase == 1 && trained.index >= calibration_start_) {
          if (!have_ranges_) {
            cost_min_ = cost_max_ = s.cost;
            lat_min_ = lat_max_ = s.latency_ms;
            have_ranges_ = true;
          } else {
            cost_min_ = std::min(cost_min_, s.cost);
            cost_max_ = std::max(cost_max_, s.cost);
            lat_min_ = std::min(lat_min_, s.latency_ms);
            lat_max_ = std::max(lat_max_, s.latency_ms);
          }
        }
        if (on_episode) on_episode(s);
      },
      [&](int index, const FullPipelineEnv& env, const Episode& episode,
          const PlanScore& score) {
        BootstrapEpisodeStats& s = stats[static_cast<size_t>(index)];
        const PlanNode* plan = env.FinalPlan();
        s.cost = plan->est_cost;
        s.latency_ms =
            scored_by_latency && !episode.steps.empty()
                ? score.metric
                : engine_->latency().SimulateMs(*env.query(), *plan);
      });
}

void BootstrapTrainer::RunPhase1(
    const std::vector<Query>& workload, int episodes,
    const std::function<void(const BootstrapEpisodeStats&)>& on_episode) {
  HFQ_CHECK(!workload.empty());
  trainer_.set_reward(&cost_reward_);
  // At least the final Phase-1 episode always calibrates.
  calibration_start_ = std::min(
      episodes - 1,
      episodes - static_cast<int>(config_.calibration_fraction *
                                  static_cast<double>(episodes)));
  RunPhase(workload, episodes, /*phase=*/1, on_episode);
}

void BootstrapTrainer::SwitchToPhase2() {
  switch (config_.switch_mode) {
    case BootstrapSwitchMode::kUnscaled:
      trainer_.set_reward(&latency_reward_);
      break;
    case BootstrapSwitchMode::kScaledTransfer:
      trainer_.agent().ResetOptimizerState();
      [[fallthrough]];
    case BootstrapSwitchMode::kScaled:
      HFQ_CHECK_MSG(have_ranges_, "Phase 1 must run before Phase 2");
      scaled_reward_.Calibrate(cost_min_, cost_max_, lat_min_, lat_max_);
      trainer_.set_reward(&scaled_reward_);
      break;
  }
}

void BootstrapTrainer::RunPhase2(
    const std::vector<Query>& workload, int episodes,
    const std::function<void(const BootstrapEpisodeStats&)>& on_episode) {
  RunPhase(workload, episodes, /*phase=*/2, on_episode);
}

}  // namespace hfq
