// Cost-model bootstrapping (paper Section 5.2): Phase 1 trains a policy-
// gradient agent against the optimizer's cost model (cheap, executes
// nothing — the "training wheels"); Phase 2 switches the reward to
// simulated latency. The switch can be:
//   * unscaled — the raw latency range replaces the cost range, which the
//     paper predicts destabilizes the learner;
//   * scaled — latency is mapped into the Phase-1 cost range with the
//     paper's linear formula (observed Cmin/Cmax/Lmin/Lmax), keeping the
//     reward regime continuous;
//   * scaled + transfer — additionally re-initializes optimizer state at
//     the boundary (the paper's transfer-learning aside).
#ifndef HFQ_CORE_BOOTSTRAP_H_
#define HFQ_CORE_BOOTSTRAP_H_

#include <functional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/full_env.h"
#include "core/pg_trainer.h"

namespace hfq {

/// How the Phase 1 -> Phase 2 reward switch is handled.
enum class BootstrapSwitchMode {
  kUnscaled,        ///< Raw -log10(latency) reward from Phase 2 on.
  kScaled,          ///< Paper formula maps latency into the cost range.
  kScaledTransfer,  ///< kScaled + optimizer-state reset at the boundary.
};

const char* BootstrapSwitchModeName(BootstrapSwitchMode mode);

/// Trainer knobs.
struct BootstrapConfig {
  BootstrapConfig() {}
  PolicyGradientConfig pg;
  int episodes_per_update = 8;
  /// Tail fraction of Phase 1 used to calibrate Cmin/Cmax/Lmin/Lmax.
  double calibration_fraction = 0.2;
  BootstrapSwitchMode switch_mode = BootstrapSwitchMode::kScaled;
  /// Rollout-collection parallelism (see PolicyGradientTrainer): 1
  /// collects serially, N > 1 is deterministic for a fixed (seed, N).
  int num_rollout_workers = 1;
};

/// Per-episode diagnostics.
struct BootstrapEpisodeStats {
  int episode = 0;
  int phase = 1;
  std::string query_name;
  double reward = 0.0;
  double cost = 0.0;        ///< Cost-model value of the episode's plan.
  double latency_ms = 0.0;  ///< Simulated latency of the episode's plan.
};

/// Runs two-phase bootstrapped training over a FullPipelineEnv.
class BootstrapTrainer {
 public:
  /// `env` and `engine` must outlive the trainer, which owns the rewards
  /// and switches them between the phases.
  BootstrapTrainer(FullPipelineEnv* env, Engine* engine,
                   BootstrapConfig config, uint64_t seed);

  /// Phase 1: `episodes` episodes with the cost-model reward. Collects
  /// calibration ranges over the tail fraction.
  void RunPhase1(const std::vector<Query>& workload, int episodes,
                 const std::function<void(const BootstrapEpisodeStats&)>&
                     on_episode = nullptr);

  /// Switches the reward per the configured mode.
  void SwitchToPhase2();

  /// Phase 2: `episodes` episodes with the (possibly scaled) latency
  /// reward.
  void RunPhase2(const std::vector<Query>& workload, int episodes,
                 const std::function<void(const BootstrapEpisodeStats&)>&
                     on_episode = nullptr);

  PolicyGradientAgent& agent() { return trainer_.agent(); }
  /// The reward the current phase trains on.
  RewardSignal* reward() const { return trainer_.reward(); }
  const ScaledLatencyReward& scaled_reward() const { return scaled_reward_; }

 private:
  /// Trains one phase on the current reward; the worker harvests
  /// each plan's cost and simulated latency for the stats, simulating
  /// only when the reward did not.
  void RunPhase(const std::vector<Query>& workload, int episodes, int phase,
                const std::function<void(const BootstrapEpisodeStats&)>&
                    on_episode);

  Engine* engine_;
  BootstrapConfig config_;
  NegLogCostReward cost_reward_;
  NegLogLatencyReward latency_reward_;
  ScaledLatencyReward scaled_reward_;
  PolicyGradientTrainer trainer_;
  int episode_counter_ = 0;
  /// Phase-1 episode index from which calibration accumulates (set by
  /// RunPhase1 for the phase driver).
  int calibration_start_ = 0;
  // Calibration accumulators (tail of Phase 1).
  double cost_min_ = 0.0, cost_max_ = 0.0;
  double lat_min_ = 0.0, lat_max_ = 0.0;
  bool have_ranges_ = false;
};

}  // namespace hfq

#endif  // HFQ_CORE_BOOTSTRAP_H_
