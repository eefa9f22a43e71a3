// Learning from demonstration (paper Section 5.1), following the paper's
// five-step recipe:
//   1. Execute a workload through the traditional optimizer, recording each
//      query's episode history H_q (the optimizer's actions replayed in the
//      agent's own action space).
//   2. Record each plan's (simulated) latency L_q.
//   3. Train a reward-prediction function: (s_i, a_i) -> L_q.
//   4. Fine-tune: the agent plans queries itself, choosing the action with
//      the best predicted outcome (epsilon-greedy), observes the real
//      latency, and keeps training on its own experience.
//   5. If performance slips below the expert baseline, re-train on the
//      saved expert demonstrations until it recovers.
#ifndef HFQ_CORE_DEMONSTRATION_H_
#define HFQ_CORE_DEMONSTRATION_H_

#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/full_env.h"
#include "rl/reward_predictor.h"
#include "rl/schedule.h"
#include "util/thread_pool.h"

namespace hfq {

/// LfD knobs.
struct LfdConfig {
  LfdConfig() {}
  RewardPredictorConfig predictor;
  /// SGD minibatches for the initial pre-training phase (step 3).
  int pretrain_steps = 1500;
  /// Minibatches after every fine-tuning episode.
  int finetune_steps_per_episode = 4;
  /// Epsilon-greedy exploration schedule over fine-tuning episodes.
  double epsilon_start = 0.15;
  double epsilon_end = 0.02;
  int epsilon_decay_episodes = 600;
  /// Slip detection (step 5): if the rolling mean latency over
  /// `slip_window` episodes exceeds `slip_factor` x the expert's mean, the
  /// learner re-trains on expert demonstrations.
  int slip_window = 50;
  double slip_factor = 1.5;
  int slip_retrain_steps = 400;
  /// Parallelism for CollectDemonstrations: N > 1 runs the expert and the
  /// episode replay for N workload queries concurrently (per-worker env
  /// clones; the recorded examples keep workload order, so results are
  /// identical to the serial pass). Fine-tuning is inherently sequential —
  /// the predictor trains between episodes — and stays serial.
  int num_rollout_workers = 1;
};

/// Per-episode fine-tuning diagnostics.
struct LfdEpisodeStats {
  std::string query_name;
  double latency_ms = 0.0;
  double expert_latency_ms = 0.0;
  bool slip_retrained = false;
};

/// Drives the full LfD lifecycle over a FullPipelineEnv.
class DemonstrationLearner {
 public:
  /// `env` and `engine` must outlive the learner. The predictor regresses
  /// each plan's simulated log-latency (LatencyTarget), so no reward
  /// signal is involved.
  DemonstrationLearner(FullPipelineEnv* env, Engine* engine, LfdConfig config,
                       uint64_t seed);

  /// Steps 1-2: expert demonstrations for every workload query. Returns
  /// the number of (state, action) examples newly inserted into the
  /// predictor's replay — 0 when every example was already resident
  /// (e.g. a repeated Train over the same workload).
  Result<int> CollectDemonstrations(const std::vector<Query>& workload);

  /// Step 3: pre-trains the reward predictor; returns final training loss.
  double Pretrain();

  /// Step 4 (+5): one self-planned episode on `query`.
  LfdEpisodeStats FineTuneEpisode(const Query& query);

  /// Plans a query greedily with the current predictor (no learning) and
  /// returns its simulated latency.
  double EvaluateQuery(const Query& query);

  RewardPredictor& predictor() { return predictor_; }
  int episodes_run() const { return episodes_run_; }
  /// Expert examples collected so far (the slip-retrain set).
  size_t num_expert_examples() const { return expert_examples_.size(); }

 private:
  /// Runs one env episode selecting actions via the predictor; returns the
  /// episode's transitions and the resulting plan's latency.
  double RunPredictorEpisode(const Query& query, double epsilon,
                             std::vector<Transition>* transitions);
  void AttachAndStore(const std::vector<Transition>& transitions,
                      double latency_ms);

  FullPipelineEnv* env_;
  Engine* engine_;
  LfdConfig config_;
  RewardPredictor predictor_;
  Rng rng_;
  /// Per-worker env clones + pool for parallel demonstration collection.
  std::vector<std::unique_ptr<FullPipelineEnv>> worker_envs_;
  std::unique_ptr<ThreadPool> pool_;

  /// Saved expert examples for slip re-training (step 5).
  std::vector<OutcomeExample> expert_examples_;
  /// Expert mean latency over the demonstration workload (slip baseline).
  double expert_mean_latency_ = 0.0;
  /// Rolling latencies of recent fine-tuning episodes.
  std::vector<double> recent_latencies_;
  int episodes_run_ = 0;
};

/// log10(1 + latency) — the regression target for the predictor; heavy
/// tails of catastrophic latencies stay bounded.
double LatencyTarget(double latency_ms);

}  // namespace hfq

#endif  // HFQ_CORE_DEMONSTRATION_H_
