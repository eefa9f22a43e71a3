#include "core/hands_free.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "exec/executor.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace hfq {
namespace {

// A network built with `live`'s own architecture and activation that holds
// a bit-exact copy of its weights, and none of its training caches.
Mlp WeightsCopyOf(Mlp& live, Rng* rng) {
  Mlp copy(live.config(), rng);
  copy.CopyWeightsFrom(live);
  return copy;
}

}  // namespace

const char* TrainingStrategyName(TrainingStrategy strategy) {
  switch (strategy) {
    case TrainingStrategy::kLearningFromDemonstration:
      return "learning-from-demonstration";
    case TrainingStrategy::kCostModelBootstrapping:
      return "cost-model-bootstrapping";
    case TrainingStrategy::kIncrementalHybrid:
      return "incremental-hybrid";
  }
  return "?";
}

HandsFreeOptimizer::HandsFreeOptimizer(Engine* engine, HandsFreeConfig config)
    : engine_(engine), config_(config) {
  HFQ_CHECK(engine != nullptr);
  HFQ_CHECK(config_.num_rollout_workers >= 1);
  // The facade-level parallelism knob is authoritative for the backends.
  config_.lfd.num_rollout_workers = config_.num_rollout_workers;
  config_.bootstrap.num_rollout_workers = config_.num_rollout_workers;
  OptimizerOptions dp_options = engine_->expert().options();
  dp_options.geqo_threshold = kMaxRelations;  // Always exhaustive DP.
  dp_baseline_ = std::make_unique<TraditionalOptimizer>(
      &engine_->catalog(), &engine_->cost_model(), dp_options);
  OptimizerOptions geqo_options = engine_->expert().options();
  geqo_options.geqo_threshold = 1;  // Always genetic search.
  geqo_baseline_ = std::make_unique<TraditionalOptimizer>(
      &engine_->catalog(), &engine_->cost_model(), geqo_options);
  featurizer_ = std::make_unique<RejoinFeaturizer>(config_.max_relations,
                                                   &engine_->estimator());
  env_ = std::make_unique<FullPipelineEnv>(featurizer_.get(),
                                           &engine_->expert());
  switch (config_.strategy) {
    case TrainingStrategy::kLearningFromDemonstration:
      lfd_ = std::make_unique<DemonstrationLearner>(env_.get(), engine_,
                                                    config_.lfd,
                                                    config_.seed);
      frozen_policy_ = std::make_unique<PredictorPolicy>(&lfd_->predictor());
      break;
    case TrainingStrategy::kCostModelBootstrapping:
      bootstrap_ = std::make_unique<BootstrapTrainer>(
          env_.get(), engine_, config_.bootstrap, config_.seed);
      frozen_policy_ = std::make_unique<AgentPolicy>(&bootstrap_->agent());
      break;
    case TrainingStrategy::kIncrementalHybrid:
      curriculum_generator_ = std::make_unique<WorkloadGenerator>(
          &engine_->catalog(), config_.seed ^ 0xC0FFEE);
      latency_reward_ =
          std::make_unique<NegLogLatencyReward>(&engine_->latency());
      incremental_ = std::make_unique<IncrementalTrainer>(
          env_.get(), latency_reward_.get(), curriculum_generator_.get(),
          config_.incremental_pg, /*episodes_per_update=*/8, config_.seed,
          config_.num_rollout_workers);
      frozen_policy_ = std::make_unique<AgentPolicy>(&incremental_->agent());
      break;
  }
}

Status HandsFreeOptimizer::Train(const std::vector<Query>& workload) {
  if (workload.empty()) {
    return Status::InvalidArgument("training workload is empty");
  }
  // An over-capacity query would otherwise only surface as a featurizer
  // crash deep inside a rollout worker.
  HFQ_RETURN_IF_ERROR(CheckWorkloadCapacity(workload));
  // Bootstrapping calibrates Phase 2 from Phase 1, which gets half the
  // budget; the curriculum needs an episode to spread over its phases.
  const int min_episodes =
      config_.strategy == TrainingStrategy::kCostModelBootstrapping ? 2
      : config_.strategy == TrainingStrategy::kIncrementalHybrid    ? 1
                                                                     : 0;
  if (config_.training_episodes < min_episodes) {
    return Status::InvalidArgument(
        StrFormat("%s needs training_episodes >= %d, got %d",
                  TrainingStrategyName(config_.strategy), min_episodes,
                  config_.training_episodes));
  }
  switch (config_.strategy) {
    case TrainingStrategy::kLearningFromDemonstration: {
      HFQ_ASSIGN_OR_RETURN(int collected,
                           lfd_->CollectDemonstrations(workload));
      // Unique inserts make 0 legitimate on a re-train over known queries;
      // only a learner with no expert knowledge at all is an error.
      if (collected == 0 && lfd_->num_expert_examples() == 0) {
        return Status::Internal("no demonstrations collected");
      }
      lfd_->Pretrain();
      for (int e = 0; e < config_.training_episodes; ++e) {
        lfd_->FineTuneEpisode(
            workload[static_cast<size_t>(e) % workload.size()]);
      }
      break;
    }
    case TrainingStrategy::kCostModelBootstrapping: {
      const int phase1 = config_.training_episodes / 2;
      const int phase2 = config_.training_episodes - phase1;
      bootstrap_->RunPhase1(workload, phase1);
      bootstrap_->SwitchToPhase2();
      bootstrap_->RunPhase2(workload, phase2);
      break;
    }
    case TrainingStrategy::kIncrementalHybrid: {
      std::vector<CurriculumPhase> phases =
          BuildCurriculum(CurriculumKind::kHybrid, config_.training_episodes,
                          config_.max_relations);
      HFQ_RETURN_IF_ERROR(incremental_->Run(phases, /*queries_per_phase=*/24));
      // Leave the env in full-pipeline mode for inference.
      env_->set_stages(PipelineStages::All());
      break;
    }
  }
  trained_ = true;
  if (config_.teacher.iterations > 0) {
    HFQ_RETURN_IF_ERROR(RefineWithTeacher(workload, config_.teacher));
  }
  return Status::OK();
}

Status HandsFreeOptimizer::RefineWithTeacher(const std::vector<Query>& workload,
                                             const TeacherConfig& teacher) {
  if (!trained_) {
    return Status::FailedPrecondition("Train() before RefineWithTeacher()");
  }
  if (workload.empty()) {
    return Status::InvalidArgument("teacher workload is empty");
  }
  HFQ_RETURN_IF_ERROR(CheckWorkloadCapacity(workload));
  if (teacher_pool_ == nullptr) {
    teacher_pool_ = std::make_unique<ExperiencePool>();
  }

  // The student is the active strategy backend's model — the same object
  // frozen_policy_ reads, so the loop's greedy evaluation always sees the
  // weights the student just trained. A policy-gradient student's value
  // head regresses each replayed demo's return under its trainer's current
  // reward; the LfD predictor regresses demo_target instead.
  std::unique_ptr<TeacherStudent> student;
  RewardSignal* demo_reward = nullptr;
  switch (config_.strategy) {
    case TrainingStrategy::kLearningFromDemonstration:
      student = std::make_unique<PredictorTeacherStudent>(
          &lfd_->predictor(), teacher.predictor_steps);
      break;
    case TrainingStrategy::kCostModelBootstrapping:
      student = std::make_unique<AgentTeacherStudent>(&bootstrap_->agent());
      demo_reward = bootstrap_->reward();
      break;
    case TrainingStrategy::kIncrementalHybrid:
      student = std::make_unique<AgentTeacherStudent>(&incremental_->agent());
      demo_reward = latency_reward_.get();
      break;
  }

  std::unique_ptr<PlanSearch> searcher = MakePlanSearch(config_.teacher_search);
  MlpWorkspace search_ws;
  SearchScratch search_scratch;

  TeacherLoopTask task;
  task.env = env_.get();
  task.num_queries = workload.size();
  task.select_query = [this, &workload](size_t i) {
    env_->SetQuery(&workload[i]);
    return workload[i].StructuralFingerprint();
  };
  task.search = [this, &searcher, &search_ws,
                 &search_scratch](SearchEnv* env) -> Result<TeacherSearchOutcome> {
    SearchContext ctx{frozen_policy_.get(), /*rng=*/nullptr, &search_ws,
                      &search_scratch};
    HFQ_ASSIGN_OR_RETURN(SearchResult found, searcher->Search(env, ctx));
    TeacherSearchOutcome outcome;
    outcome.actions = std::move(found.actions);
    outcome.cost = found.cost;
    return outcome;
  };
  task.policy = frozen_policy_.get();
  task.student = student.get();
  task.pool = teacher_pool_.get();
  if (demo_reward != nullptr) {
    task.demo_reward = [this, &workload, demo_reward](size_t i) {
      return demo_reward->Score(workload[i], *env_->FinalPlan()).reward;
    };
  }
  if (config_.strategy == TrainingStrategy::kLearningFromDemonstration) {
    // The predictor regresses log10 latency (LatencyTarget), not the
    // episode return: NegLogLatencyReward is -log10(ms), a different
    // scale, so the default -TotalReward() target would be wrong here.
    task.demo_target = [this, &workload](size_t i, const Episode& episode,
                                         double final_cost) {
      (void)episode;
      (void)final_cost;
      return LatencyTarget(
          engine_->latency().SimulateMs(workload[i], *env_->FinalPlan()));
    };
  }

  HFQ_ASSIGN_OR_RETURN(std::vector<TeacherIterationStats> stats,
                       RunTeacherLoop(task, teacher));
  teacher_stats_.insert(teacher_stats_.end(), stats.begin(), stats.end());
  return Status::OK();
}

Result<std::unique_ptr<PolicySnapshot>> HandsFreeOptimizer::SnapshotPolicy() {
  if (!trained_) {
    return Status::FailedPrecondition("Train() before SnapshotPolicy()");
  }
  // A fresh model (clean optimizer and replay state) whose networks are
  // weight copies of the live ones, each with its own architecture and
  // activation, so a model loaded from any file publishes exactly. The
  // snapshot shares nothing with the live model.
  auto snapshot = std::make_unique<PolicySnapshot>();
  Rng init_rng(config_.seed);
  if (config_.strategy == TrainingStrategy::kLearningFromDemonstration) {
    snapshot->predictor = std::make_unique<RewardPredictor>(
        env_->state_dim(), env_->action_dim(), config_.lfd.predictor,
        config_.seed);
    snapshot->predictor->net() =
        WeightsCopyOf(lfd_->predictor().net(), &init_rng);
    snapshot->view =
        std::make_unique<PredictorPolicy>(snapshot->predictor.get());
    return snapshot;
  }
  PolicyGradientAgent& live =
      config_.strategy == TrainingStrategy::kCostModelBootstrapping
          ? bootstrap_->agent()
          : incremental_->agent();
  snapshot->agent = std::make_unique<PolicyGradientAgent>(
      env_->state_dim(), env_->action_dim(), live.config(), config_.seed);
  snapshot->agent->policy_net() = WeightsCopyOf(live.policy_net(), &init_rng);
  snapshot->agent->value_net() = WeightsCopyOf(live.value_net(), &init_rng);
  snapshot->view = std::make_unique<AgentPolicy>(snapshot->agent.get());
  return snapshot;
}

Status HandsFreeOptimizer::CheckReadyToPlan(const Query& query) const {
  if (!trained_) {
    return Status::FailedPrecondition("Train() before planning");
  }
  return featurizer_->CheckCapacity(query);
}

Status HandsFreeOptimizer::CheckWorkloadCapacity(
    const std::vector<Query>& workload) const {
  for (const Query& query : workload) {
    HFQ_RETURN_IF_ERROR(featurizer_->CheckCapacity(query));
  }
  return Status::OK();
}

Result<PlanNodePtr> HandsFreeOptimizer::Optimize(const Query& query,
                                             double* planning_ms_out) {
  HFQ_RETURN_IF_ERROR(CheckReadyToPlan(query));
  return PlanOnEnv(env_.get(), query, &plan_ws_, config_.search,
                   planning_ms_out, &plan_scratch_);
}

Status HandsFreeOptimizer::SaveModel(const std::string& path) {
  if (!trained_) {
    return Status::FailedPrecondition("nothing to save: Train() first");
  }
  std::ofstream out(path);
  if (!out.good()) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << "hfq-handsfree-v1 " << TrainingStrategyName(config_.strategy) << " "
      << config_.max_relations << "\n";
  switch (config_.strategy) {
    case TrainingStrategy::kLearningFromDemonstration:
      return lfd_->predictor().Save(out);
    case TrainingStrategy::kCostModelBootstrapping:
      return bootstrap_->agent().Save(out);
    case TrainingStrategy::kIncrementalHybrid:
      return incremental_->agent().Save(out);
  }
  return Status::Internal("unknown strategy");
}

Status HandsFreeOptimizer::LoadModel(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return Status::NotFound("cannot open model file: " + path);
  }
  std::string magic, strategy_name;
  int max_relations = 0;
  in >> magic >> strategy_name >> max_relations;
  if (magic != "hfq-handsfree-v1") {
    return Status::InvalidArgument("not a hands-free model file: " + path);
  }
  if (strategy_name != TrainingStrategyName(config_.strategy)) {
    return Status::FailedPrecondition(
        "model was trained with strategy '" + strategy_name +
        "' but this optimizer is configured for '" +
        TrainingStrategyName(config_.strategy) + "'");
  }
  if (max_relations != config_.max_relations) {
    return Status::FailedPrecondition(
        "model max_relations does not match configuration");
  }
  switch (config_.strategy) {
    case TrainingStrategy::kLearningFromDemonstration:
      HFQ_RETURN_IF_ERROR(lfd_->predictor().LoadWeights(in));
      break;
    case TrainingStrategy::kCostModelBootstrapping:
      HFQ_RETURN_IF_ERROR(bootstrap_->agent().LoadWeights(in));
      break;
    case TrainingStrategy::kIncrementalHybrid:
      HFQ_RETURN_IF_ERROR(incremental_->agent().LoadWeights(in));
      break;
  }
  trained_ = true;
  return Status::OK();
}

Result<HandsFreeOptimizer::Comparison> HandsFreeOptimizer::Compare(
    const Query& query) {
  Comparison result;
  HFQ_ASSIGN_OR_RETURN(PlanNodePtr learned, Optimize(query));
  result.learned_cost = learned->est_cost;
  result.learned_latency_ms = engine_->latency().SimulateMs(query, *learned);
  HFQ_ASSIGN_OR_RETURN(Engine::ExpertResult expert,
                       engine_->RunExpert(query));
  result.expert_cost = expert.cost;
  result.expert_latency_ms = expert.latency_ms;
  return result;
}

Result<PlanNodePtr> HandsFreeOptimizer::PlanOnEnv(
    FullPipelineEnv* env, const Query& query, MlpWorkspace* ws,
    const SearchConfig& search, double* planning_ms_out,
    SearchScratch* scratch) {
  env->SetQuery(&query);
  SearchContext ctx{frozen_policy_.get(), /*rng=*/nullptr, ws, scratch};
  std::unique_ptr<PlanSearch> searcher = MakePlanSearch(search);
  HFQ_ASSIGN_OR_RETURN(SearchResult result, searcher->Search(env, ctx));
  if (planning_ms_out != nullptr) *planning_ms_out = result.planning_ms;
  return env->FinalPlan()->Clone();
}

std::unique_ptr<FullPipelineEnv> HandsFreeOptimizer::MakeWorkerEnv() const {
  auto env = std::make_unique<FullPipelineEnv>(
      env_->featurizer(), env_->expert(), env_->config());
  env->set_stages(env_->stages());
  return env;
}

Result<HandsFreeOptimizer::LearnedEvaluation>
HandsFreeOptimizer::EvaluateLearnedOnEnv(FullPipelineEnv* env,
                                         const Query& query, MlpWorkspace* ws,
                                         const SearchConfig& search,
                                         int plan_repeats,
                                         SearchScratch* scratch,
                                         PlanNodePtr* plan_out) {
  HFQ_RETURN_IF_ERROR(CheckReadyToPlan(query));
  LearnedEvaluation eval;
  // Wall clock around the whole call: a searched plan is charged for every
  // rollout/expansion it took, not just the winning rollout (Figure 3c
  // accounting). plan_repeats == 1 is exactly the historic single cold
  // measurement; R > 1 runs one unmeasured warmup (page in caches /
  // scratch blocks) then R timed plans and reports the median, for
  // noise-robust planning-time comparisons. The plan is deterministic per
  // (model, query, search), so repeats change timing only.
  if (plan_repeats > 1) {
    HFQ_RETURN_IF_ERROR(
        PlanOnEnv(env, query, ws, search, nullptr, scratch)
            .status());
  }
  const int repeats = std::max(1, plan_repeats);
  std::vector<double> times;
  times.reserve(static_cast<size_t>(repeats));
  PlanNodePtr learned;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    HFQ_ASSIGN_OR_RETURN(
        learned, PlanOnEnv(env, query, ws, search, nullptr, scratch));
    times.push_back(watch.ElapsedMillis());
  }
  std::sort(times.begin(), times.end());
  const size_t mid = times.size() / 2;
  eval.planning_ms = times.size() % 2 == 1
                         ? times[mid]
                         : 0.5 * (times[mid - 1] + times[mid]);
  eval.cost = learned->est_cost;
  eval.latency_ms = engine_->latency().SimulateMs(query, *learned);
  if (plan_out != nullptr) *plan_out = std::move(learned);
  return eval;
}

Result<HandsFreeOptimizer::QueryEvaluation> HandsFreeOptimizer::EvaluateOnEnv(
    FullPipelineEnv* env, const Query& query, MlpWorkspace* ws,
    const SearchConfig& search, int plan_repeats, SearchScratch* scratch,
    bool with_dp, bool measured_exec) {
  QueryEvaluation eval;

  PlanNodePtr learned_plan;
  HFQ_ASSIGN_OR_RETURN(
      LearnedEvaluation learned,
      EvaluateLearnedOnEnv(env, query, ws, search, plan_repeats, scratch,
                           measured_exec ? &learned_plan : nullptr));
  eval.learned_planning_ms = learned.planning_ms;
  eval.learned_cost = learned.cost;
  eval.learned_latency_ms = learned.latency_ms;

  Stopwatch watch;
  PlanNodePtr dp;
  if (with_dp) {
    HFQ_ASSIGN_OR_RETURN(dp, dp_baseline_->Optimize(query));
    eval.dp_planning_ms = watch.ElapsedMillis();
    eval.dp_cost = dp->est_cost;
    eval.dp_latency_ms = engine_->latency().SimulateMs(query, *dp);
  }
  eval.dp_ran = with_dp;

  watch.Reset();
  HFQ_ASSIGN_OR_RETURN(PlanNodePtr geqo, geqo_baseline_->Optimize(query));
  eval.geqo_planning_ms = watch.ElapsedMillis();
  eval.geqo_cost = geqo->est_cost;
  eval.geqo_latency_ms = engine_->latency().SimulateMs(query, *geqo);

  // Baseline tier: DP when it ran, else GEQO. Copies (not recomputations)
  // of the chosen planner's doubles, so regrets against the baseline are
  // bit-identical to the historic regrets-against-DP wherever DP ran.
  eval.baseline_cost = with_dp ? eval.dp_cost : eval.geqo_cost;
  eval.baseline_latency_ms =
      with_dp ? eval.dp_latency_ms : eval.geqo_latency_ms;

  if (measured_exec) {
    // Actually run both plans through the vectorized executor and record
    // wall clock — the measured counterpart of the simulated latencies.
    // A plan that trips the intermediate-tuple guard (a catastrophic
    // learned plan is a legitimate evaluation outcome, not a harness
    // failure) leaves exec_ran false; any other executor error is real.
    Executor executor(&engine_->db());
    const PlanNode& baseline_plan = with_dp ? *dp : *geqo;
    double learned_ms = 0.0, baseline_ms = 0.0;
    bool capped = false;
    for (const auto& [plan, ms] :
         {std::pair<const PlanNode*, double*>{learned_plan.get(),
                                              &learned_ms},
          std::pair<const PlanNode*, double*>{&baseline_plan,
                                              &baseline_ms}}) {
      Stopwatch exec_watch;
      auto run = executor.Execute(query, *plan);
      if (!run.ok()) {
        if (run.status().code() == StatusCode::kResourceExhausted) {
          capped = true;
          break;
        }
        return run.status();
      }
      *ms = exec_watch.ElapsedMillis();
    }
    if (!capped) {
      eval.exec_ran = true;
      eval.learned_exec_ms = learned_ms;
      eval.baseline_exec_ms = baseline_ms;
    }
  }
  return eval;
}

}  // namespace hfq
