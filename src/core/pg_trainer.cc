#include "core/pg_trainer.h"

#include <algorithm>

#include "util/check.h"

namespace hfq {
namespace {

/// One sampled episode of `query` on `env`, drawing actions from the frozen
/// `agent` through the thread-safe inference path. The finished plan is
/// scored once into `*score` and the reward becomes the last transition's
/// (an episode without decisions has nowhere to put one, so it is not
/// scored and `*score` stays zero).
Episode RunSampledEpisode(const PolicyGradientAgent& agent,
                          RewardSignal* reward, FullPipelineEnv* env,
                          const Query& query, Rng* rng, MlpWorkspace* ws,
                          PlanScore* score) {
  env->SetQuery(&query);
  env->Reset();
  Episode episode;
  while (!env->Done()) {
    Transition t;
    t.state = env->StateVector();
    t.mask = env->ActionMask();
    t.action = agent.SampleAction(t.state, t.mask, rng, ws, &t.old_prob);
    env->Step(t.action);
    episode.steps.push_back(std::move(t));
  }
  *score = PlanScore();
  if (!episode.steps.empty()) {
    *score = reward->Score(query, *env->FinalPlan());
    episode.steps.back().reward = score->reward;
  }
  return episode;
}

}  // namespace

PolicyGradientTrainer::PolicyGradientTrainer(FullPipelineEnv* env,
                                             RewardSignal* reward,
                                             PolicyGradientConfig pg,
                                             int episodes_per_update,
                                             int num_rollout_workers,
                                             uint64_t seed)
    : env_(env),
      reward_(reward),
      agent_(env->state_dim(), env->action_dim(), pg, seed),
      episodes_per_update_(episodes_per_update) {
  HFQ_CHECK(reward != nullptr);
  HFQ_CHECK(num_rollout_workers >= 1);
  for (int w = 1; w < num_rollout_workers; ++w) {
    worker_envs_.push_back(std::make_unique<FullPipelineEnv>(
        env->featurizer(), env->expert(), env->config()));
    worker_rngs_.push_back(
        std::make_unique<Rng>(seed + static_cast<uint64_t>(w)));
  }
}

void PolicyGradientTrainer::set_reward(RewardSignal* reward) {
  HFQ_CHECK(reward != nullptr);
  reward_ = reward;
}

void PolicyGradientTrainer::Train(const std::vector<Query>& workload,
                                  int episodes, const EpisodeFn& on_episode,
                                  const HarvestFn& harvest) {
  HFQ_CHECK(!workload.empty());
  std::vector<FullPipelineEnv*> envs = {env_};
  std::vector<Rng*> rngs = {&agent_.rng()};
  for (size_t w = 0; w < worker_envs_.size(); ++w) {
    // Curriculum phases change the primary env's stages between calls.
    worker_envs_[w]->set_stages(env_->stages());
    envs.push_back(worker_envs_[w].get());
    rngs.push_back(worker_rngs_[w].get());
  }
  if (envs.size() > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(static_cast<int>(envs.size()));
  }

  std::vector<Episode> pending;
  int done = 0;
  while (done < episodes) {
    const int room = episodes_per_update_ - static_cast<int>(pending.size());
    const int round = std::min(episodes - done, std::max(1, room));
    std::vector<const Query*> queries(static_cast<size_t>(round));
    for (int i = 0; i < round; ++i) {
      queries[static_cast<size_t>(i)] =
          &workload[static_cast<size_t>(done + i) % workload.size()];
    }
    // Episode i runs on worker i % W, each worker in ascending order on its
    // own env and rng. Without a pool the round runs inline, so one worker
    // consumes the agent's rng exactly as the serial loop did. A worker's
    // exception reaches this thread only after every worker finished.
    std::vector<Episode> collected(static_cast<size_t>(round));
    const size_t num_workers = envs.size();
    RunOnWorkers(pool_.get(), static_cast<int>(num_workers), [&](int worker) {
      const size_t w = static_cast<size_t>(worker);
      MlpWorkspace ws;
      for (size_t i = w; i < collected.size(); i += num_workers) {
        PlanScore score;
        collected[i] = RunSampledEpisode(agent_, reward_, envs[w],
                                         *queries[i], rngs[w], &ws, &score);
        if (harvest) {
          harvest(done + static_cast<int>(i), *envs[w], collected[i], score);
        }
      }
    });
    for (int i = 0; i < round; ++i) {
      Episode& episode = collected[static_cast<size_t>(i)];
      TrainedEpisode trained;
      trained.index = done + i;
      trained.query = queries[static_cast<size_t>(i)];
      trained.reward = episode.TotalReward();
      if (!episode.steps.empty()) {
        pending.push_back(std::move(episode));
        if (static_cast<int>(pending.size()) >= episodes_per_update_) {
          agent_.Update(pending);
          pending.clear();
        }
      }
      if (on_episode) on_episode(trained);
    }
    done += round;
  }
  // Leftover episodes would otherwise be dropped, or carry stale old_prob
  // PPO ratios into the next call's first update under a different stage
  // set or reward.
  if (!pending.empty()) agent_.Update(pending);
}

}  // namespace hfq
