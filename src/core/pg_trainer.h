// The one policy-gradient training loop: a PolicyGradientAgent trained on a
// FullPipelineEnv from batches of sampled episodes. ReJOIN (the env with
// only the join-order stage), cost-model bootstrapping (core/bootstrap.h)
// and the curricula (core/incremental.h) all train through it; they differ
// only in the env's stages and the trainer's reward, which callers change
// between Train calls. The trainer owns the reward: the env only builds
// plans, and each sampled episode's finished plan is scored once.
#ifndef HFQ_CORE_PG_TRAINER_H_
#define HFQ_CORE_PG_TRAINER_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/full_env.h"
#include "core/reward.h"
#include "rl/policy_gradient.h"
#include "util/thread_pool.h"

namespace hfq {

/// One finished training episode, as Train's in-order callback sees it.
struct TrainedEpisode {
  int index = 0;  ///< Position within the Train call.
  const Query* query = nullptr;
  double reward = 0.0;  ///< The episode's return.
};

/// Owns the agent, its worker envs and their rngs, and the round-based
/// collection loop.
class PolicyGradientTrainer {
 public:
  /// Runs on the collecting worker right after episode `index` of the
  /// Train call finished, while `env` still holds its finished plan;
  /// `score` is the reward's score of that plan (zero for an episode
  /// without steps, which is not scored). Calls for different episodes may
  /// run concurrently.
  using HarvestFn =
      std::function<void(int index, const FullPipelineEnv& env,
                         const Episode& episode, const PlanScore& score)>;
  /// Runs on the calling thread in episode order, after the episode joined
  /// the update batch (and after the update it completed, if any).
  using EpisodeFn = std::function<void(const TrainedEpisode&)>;

  /// `env` and `reward` must outlive the trainer. With
  /// `num_rollout_workers` N > 1 each update batch is collected across N
  /// envs against the frozen policy: worker 0 is `env` sampling from the
  /// agent's rng, worker w >= 1 an env built from `env`'s collaborators
  /// sampling from a stream seeded `seed + w`. A fixed (seed, N) is
  /// deterministic, and N = 1 is the serial loop bit for bit.
  PolicyGradientTrainer(FullPipelineEnv* env, RewardSignal* reward,
                        PolicyGradientConfig pg, int episodes_per_update,
                        int num_rollout_workers, uint64_t seed);

  /// Trains for `episodes` episodes over the workload round-robin; worker
  /// envs first take `env`'s current stages. Each episode's finished plan
  /// is scored once by the current reward, on its worker, and the score
  /// lands on the episode's last transition. A collection round ends where
  /// the serial loop would update the policy, so the policy only changes
  /// between rounds. The trailing partial batch is flushed into a final
  /// update before returning.
  void Train(const std::vector<Query>& workload, int episodes,
             const EpisodeFn& on_episode = nullptr,
             const HarvestFn& harvest = nullptr);

  /// The reward switch (bootstrap's Phase 2); the signal must be
  /// thread-safe when N > 1 and outlive the trainer.
  void set_reward(RewardSignal* reward);
  RewardSignal* reward() const { return reward_; }

  PolicyGradientAgent& agent() { return agent_; }

 private:
  FullPipelineEnv* env_;
  RewardSignal* reward_;
  PolicyGradientAgent agent_;
  int episodes_per_update_;
  std::vector<std::unique_ptr<FullPipelineEnv>> worker_envs_;
  std::vector<std::unique_ptr<Rng>> worker_rngs_;
  /// Created by the first multi-worker Train.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace hfq

#endif  // HFQ_CORE_PG_TRAINER_H_
