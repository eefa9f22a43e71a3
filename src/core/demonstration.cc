#include "core/demonstration.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/logging.h"

namespace hfq {

double LatencyTarget(double latency_ms) {
  return std::log10(1.0 + std::max(0.0, latency_ms));
}

DemonstrationLearner::DemonstrationLearner(FullPipelineEnv* env,
                                           Engine* engine, LfdConfig config,
                                           uint64_t seed)
    : env_(env),
      engine_(engine),
      config_(config),
      predictor_(env->state_dim(), env->action_dim(), config.predictor, seed),
      rng_(seed ^ 0xDE30ull) {
  HFQ_CHECK(env != nullptr && engine != nullptr);
}

Result<int> DemonstrationLearner::CollectDemonstrations(
    const std::vector<Query>& workload) {
  const int num_workers = std::max(1, config_.num_rollout_workers);
  while (static_cast<int>(worker_envs_.size()) < num_workers - 1) {
    worker_envs_.push_back(std::make_unique<FullPipelineEnv>(
        env_->featurizer(), env_->expert(), env_->config()));
  }
  std::vector<FullPipelineEnv*> envs = {env_};
  for (auto& worker_env : worker_envs_) {
    worker_env->set_stages(env_->stages());
    envs.push_back(worker_env.get());
  }
  if (num_workers > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(num_workers);
  }

  // Steps 1-2 for query i run on worker i % num_workers: the expert
  // optimizes (thread-safe: estimator/oracle memos are internally
  // synchronized), the decisions replay through the worker's env, and the
  // plan's simulated latency is recorded. Examples are then accumulated
  // serially in workload order, so results match the serial pass exactly.
  const size_t n = workload.size();
  std::vector<Episode> episodes(n);
  std::vector<double> latencies(n, 0.0);
  std::vector<Status> errors(n, Status::OK());
  RunOnWorkers(pool_.get(), num_workers, [&](int w) {
    for (size_t i = static_cast<size_t>(w); i < n;
         i += static_cast<size_t>(num_workers)) {
      const Query& query = workload[i];
      auto expert = engine_->RunExpert(query);
      if (!expert.ok()) {
        errors[i] = expert.status();
        continue;
      }
      auto episode =
          envs[static_cast<size_t>(w)]->ExpertEpisode(query, *expert->plan);
      if (!episode.ok()) {
        errors[i] = episode.status();
        continue;
      }
      episodes[i] = std::move(*episode);
      latencies[i] = expert->latency_ms;
    }
  });
  for (const Status& status : errors) {
    HFQ_RETURN_IF_ERROR(status);
  }

  int collected = 0;
  double latency_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    latency_sum += latencies[i];
    const double target = LatencyTarget(latencies[i]);
    for (const Transition& t : episodes[i].steps) {
      OutcomeExample example;
      example.state = t.state;
      example.action = t.action;
      example.target = target;
      example.from_expert = true;  // Enables the large-margin loss.
      expert_examples_.push_back(example);
      // Unique insert: re-collecting a workload that shares expert traces
      // (or a repeated Train call) must not stack duplicate copies that
      // would overweight uniform replay sampling.
      if (predictor_.AddExampleUnique(std::move(example))) ++collected;
    }
  }
  if (!workload.empty()) {
    expert_mean_latency_ = latency_sum / static_cast<double>(workload.size());
  }
  return collected;
}

double DemonstrationLearner::Pretrain() {
  return predictor_.TrainSteps(config_.pretrain_steps);
}

double DemonstrationLearner::RunPredictorEpisode(
    const Query& query, double epsilon,
    std::vector<Transition>* transitions) {
  env_->SetQuery(&query);
  env_->Reset();
  while (!env_->Done()) {
    Transition t;
    t.state = env_->StateVector();
    t.mask = env_->ActionMask();
    t.action = predictor_.SelectAction(t.state, t.mask, epsilon);
    env_->Step(t.action);
    if (transitions != nullptr) transitions->push_back(std::move(t));
  }
  return engine_->latency().SimulateMs(query, *env_->FinalPlan());
}

void DemonstrationLearner::AttachAndStore(
    const std::vector<Transition>& transitions, double latency_ms) {
  const double target = LatencyTarget(latency_ms);
  for (const Transition& t : transitions) {
    OutcomeExample example;
    example.state = t.state;
    example.action = t.action;
    example.target = target;
    predictor_.AddExample(std::move(example));
  }
}

LfdEpisodeStats DemonstrationLearner::FineTuneEpisode(const Query& query) {
  LfdEpisodeStats stats;
  stats.query_name = query.name;
  LinearSchedule eps(config_.epsilon_start, config_.epsilon_end,
                     config_.epsilon_decay_episodes);
  const double epsilon = eps.Value(episodes_run_);

  std::vector<Transition> transitions;
  stats.latency_ms = RunPredictorEpisode(query, epsilon, &transitions);
  stats.expert_latency_ms = expert_mean_latency_;
  AttachAndStore(transitions, stats.latency_ms);
  predictor_.TrainSteps(config_.finetune_steps_per_episode);
  ++episodes_run_;

  // Step 5: slip detection against the expert baseline.
  recent_latencies_.push_back(stats.latency_ms);
  if (static_cast<int>(recent_latencies_.size()) > config_.slip_window) {
    recent_latencies_.erase(recent_latencies_.begin());
  }
  if (static_cast<int>(recent_latencies_.size()) == config_.slip_window &&
      expert_mean_latency_ > 0.0) {
    double mean = 0.0;
    for (double l : recent_latencies_) mean += l;
    mean /= static_cast<double>(recent_latencies_.size());
    if (mean > config_.slip_factor * expert_mean_latency_ &&
        !expert_examples_.empty()) {
      // Re-train on expert demonstrations until performance recovers.
      // Unique insert: copies evicted from replay are restored, but
      // resident ones are not duplicated — repeated slips previously piled
      // up identical demonstrations and skewed the sampling distribution.
      for (const OutcomeExample& ex : expert_examples_) {
        predictor_.AddExampleUnique(ex);
      }
      predictor_.TrainSteps(config_.slip_retrain_steps);
      recent_latencies_.clear();
      stats.slip_retrained = true;
      LogInfo("LfD slip detected; re-trained on expert demonstrations");
    }
  }
  return stats;
}

double DemonstrationLearner::EvaluateQuery(const Query& query) {
  return RunPredictorEpisode(query, /*epsilon=*/0.0, nullptr);
}

}  // namespace hfq
