// HandsFreeOptimizer: the public facade — a query optimizer that trains
// itself on a workload (choosing one of the paper's three strategies) and
// then optimizes queries with no human-tuned heuristics in the loop. This
// is the library's headline API; see examples/quickstart.cpp.
#ifndef HFQ_CORE_HANDS_FREE_H_
#define HFQ_CORE_HANDS_FREE_H_

#include <memory>
#include <vector>

#include "core/bootstrap.h"
#include "core/demonstration.h"
#include "core/engine.h"
#include "core/full_env.h"
#include "core/incremental.h"
#include "rl/experience_pool.h"
#include "rl/search_context.h"
#include "rl/teacher_loop.h"
#include "search/plan_search.h"
#include "workload/generator.h"

namespace hfq {

/// Which Section-5 training strategy the facade uses.
enum class TrainingStrategy {
  kLearningFromDemonstration,  ///< Section 5.1
  kCostModelBootstrapping,     ///< Section 5.2
  kIncrementalHybrid,          ///< Section 5.3 (hybrid curriculum)
};

const char* TrainingStrategyName(TrainingStrategy strategy);

/// Facade configuration.
struct HandsFreeConfig {
  HandsFreeConfig() {
    teacher_search.mode = SearchMode::kBeam;
    teacher_search.beam_width = 4;
  }
  TrainingStrategy strategy =
      TrainingStrategy::kLearningFromDemonstration;
  /// Largest query (relation count) the optimizer will ever see.
  int max_relations = 17;
  /// Training episode budget. Bootstrapping needs at least 2 (Phase 1
  /// gets half), the curriculum at least 1; Train rejects less.
  int training_episodes = 2000;
  uint64_t seed = 7;
  /// Parallelism knob, copied into the strategy backends at construction:
  /// rollout collection during Train runs on this many workers. Planning
  /// is serial per query. 1 = serial; N > 1 is deterministic for a fixed
  /// (seed, N), and 1 matches the serial trajectories bit-for-bit.
  int num_rollout_workers = 1;
  /// How the trained policy is used at plan time (src/search): greedy
  /// single-rollout inference (default — the paper's case study),
  /// best-of-K sampled rollouts keeping the cheapest by cost model, or
  /// value-guided beam search over plan prefixes. Optimize and Compare
  /// route through this config; the default is bit-for-bit the historic
  /// greedy path.
  SearchConfig search;
  /// Search-as-teacher refinement (rl/teacher_loop.h) run automatically at
  /// the end of Train() when teacher.iterations > 0 (default off): the
  /// frozen policy searches the training workload with `teacher_search`
  /// (default beam-4), discovered plans land in a deduplicated experience
  /// pool, and the strategy backend trains on the cheapest plan per query.
  /// Closes most of the greedy-inference regret gap at zero plan-time
  /// cost. Deterministic at any worker count (the loop is serial).
  TeacherConfig teacher;
  SearchConfig teacher_search;
  LfdConfig lfd;
  BootstrapConfig bootstrap;
  PolicyGradientConfig incremental_pg;
};

/// A self-training query optimizer over one Engine.
class HandsFreeOptimizer {
 public:
  /// `engine` must outlive the optimizer.
  HandsFreeOptimizer(Engine* engine, HandsFreeConfig config);

  /// Trains on the workload with the configured strategy. Re-entrant: a
  /// second call continues training. When config.teacher.iterations > 0,
  /// finishes with that many search-as-teacher refinement iterations over
  /// the same workload (see RefineWithTeacher).
  Status Train(const std::vector<Query>& workload);

  /// Runs the search-as-teacher loop over `workload` against the current
  /// trained model: per iteration, the frozen policy searches every query
  /// with config.teacher_search, discoveries accumulate in a deduplicated
  /// cross-call experience pool (teacher_pool()), and the strategy backend
  /// trains on the cheapest known plan per query. Weights only survive an
  /// iteration that did not worsen greedy inference, so the per-iteration
  /// greedy mean cost (teacher_stats()) is non-increasing. Requires a
  /// trained model; callable repeatedly (stats append, the pool persists).
  Status RefineWithTeacher(const std::vector<Query>& workload,
                           const TeacherConfig& teacher);

  /// Optimizes a query with the learned policy through config.search.
  /// `planning_ms_out` (optional) receives the search's planning-time
  /// charge: pure inference time for greedy (the historic Figure 3c
  /// metric), the full search wall clock — every rollout and expansion —
  /// for best-of-K and beam.
  Result<PlanNodePtr> Optimize(const Query& query,
                               double* planning_ms_out = nullptr);

  /// Simulated latency of the learned plan vs the expert plan for a query
  /// (positive ratio < 1 means the learned optimizer wins).
  struct Comparison {
    double learned_latency_ms = 0.0;
    double expert_latency_ms = 0.0;
    double learned_cost = 0.0;
    double expert_cost = 0.0;
  };
  Result<Comparison> Compare(const Query& query);

  /// One query through all three planners the evaluation harness compares:
  /// the learned policy, exhaustive System-R DP (the regret baseline,
  /// cost-optimal by construction), and genetic search (GEQO) forced even
  /// below the usual threshold. Planning times are wall-clock; everything
  /// else is deterministic per (model, query).
  struct QueryEvaluation {
    double learned_cost = 0.0;
    double learned_latency_ms = 0.0;
    double learned_planning_ms = 0.0;
    double dp_cost = 0.0;
    double dp_latency_ms = 0.0;
    double dp_planning_ms = 0.0;
    double geqo_cost = 0.0;
    double geqo_latency_ms = 0.0;
    double geqo_planning_ms = 0.0;
    /// False when the caller skipped the exhaustive-DP baseline (the eval
    /// harness does so above EvalConfig::dp_max_relations); the dp_*
    /// fields are then zero and must not be read.
    bool dp_ran = true;
    /// The baseline tier regrets are computed against: DP when it ran
    /// (cost-optimal by construction), otherwise GEQO — the traditional
    /// optimizer's actual behavior beyond exhaustive reach, mirroring
    /// PostgreSQL's geqo_threshold tiering.
    double baseline_cost = 0.0;
    double baseline_latency_ms = 0.0;
    /// Measured execution (EvaluateOnEnv's measured_exec): wall-clock of
    /// actually running the learned and baseline plans through the
    /// vectorized executor, next to the simulated latencies above. False
    /// when measurement was off or a plan blew the intermediate-tuple cap
    /// (ResourceExhausted) — the exec_ms fields are then zero and must not
    /// be read.
    bool exec_ran = false;
    double learned_exec_ms = 0.0;
    double baseline_exec_ms = 0.0;
  };

  /// Evaluates one query with the learned planner under `search` and
  /// with both traditional baselines (DP/GEQO are search-independent),
  /// using a caller-owned env clone (see MakeWorkerEnv), MLP workspace and
  /// search scratch (`scratch` may be null). Any number of threads may
  /// call this concurrently with distinct envs, workspaces and scratch
  /// while no training is running; the scenario-matrix harness (src/eval)
  /// spreads whole cells over its workers this way.
  /// `plan_repeats` controls the planning-time measurement: 1 is a single
  /// cold measurement; R > 1 runs one unmeasured warmup then R timed
  /// plans and reports the median — the plan itself is identical every
  /// repeat (deterministic search), only the timing changes.
  /// `with_dp` = false skips the exhaustive-DP baseline (for queries where
  /// it is infeasible): the row's dp_ran flips off and the baseline_*
  /// fields fall back from DP to GEQO. With DP on, a join graph whose
  /// subproblem count exceeds the enumeration budget
  /// (OptimizerOptions::dp_max_subproblems) makes the dp_* columns fall
  /// back to genetic search inside TraditionalOptimizer::Optimize.
  /// `measured_exec` = true additionally executes the learned and baseline
  /// plans against the engine's database (vectorized executor) and records
  /// wall-clock execution times; a plan that exceeds the executor's
  /// intermediate-tuple cap leaves exec_ran false instead of failing the
  /// evaluation.
  Result<QueryEvaluation> EvaluateOnEnv(FullPipelineEnv* env,
                                        const Query& query, MlpWorkspace* ws,
                                        const SearchConfig& search,
                                        int plan_repeats,
                                        SearchScratch* scratch, bool with_dp,
                                        bool measured_exec);

  /// The learned planner's side of EvaluateOnEnv only — what the
  /// scenario-matrix harness calls per extra search mode, so the DP/GEQO
  /// baselines are not recomputed per mode. Thread-safe under the same
  /// contract as EvaluateOnEnv.
  struct LearnedEvaluation {
    double cost = 0.0;
    double latency_ms = 0.0;
    double planning_ms = 0.0;
  };
  /// `plan_out` (optional) receives the learned plan itself — the
  /// measured-execution path needs the plan, not just its metrics.
  Result<LearnedEvaluation> EvaluateLearnedOnEnv(
      FullPipelineEnv* env, const Query& query, MlpWorkspace* ws,
      const SearchConfig& search, int plan_repeats, SearchScratch* scratch,
      PlanNodePtr* plan_out = nullptr);

  /// A fresh env clone wired to this optimizer's collaborators, carrying
  /// the primary env's current stage set. One per worker thread.
  std::unique_ptr<FullPipelineEnv> MakeWorkerEnv() const;

  /// Persists the trained model to a file (plain-text network weights plus
  /// a strategy header). Fails if not trained.
  Status SaveModel(const std::string& path);

  /// Restores a model saved by SaveModel. The configuration (strategy,
  /// max_relations) must match the saved model. Marks the optimizer
  /// trained, so Optimize() works immediately — the "ship a trained
  /// optimizer" workflow.
  Status LoadModel(const std::string& path);

  FullPipelineEnv& env() { return *env_; }
  Engine& engine() { return *engine_; }

  /// The frozen inference view of the trained model (strategy-agnostic);
  /// what every plan-time search runs on. Valid for the facade's
  /// lifetime; meaningful once trained. NOTE: this view reads the LIVE
  /// backend model — concurrent training mutates what it sees. Serving
  /// layers that must keep inferring while training proceeds take
  /// SnapshotPolicy() copies instead.
  const FrozenPolicy* policy() const { return frozen_policy_.get(); }

  /// Deep-copies the trained model into an independently-owned
  /// PolicySnapshot: a freshly built model whose networks are rebuilt with
  /// the live networks' own architectures and activations and given their
  /// weights (Mlp::CopyWeightsFrom), so the copy is bit-exact whatever
  /// model LoadModel read. The snapshot's FrozenPolicy view returns
  /// bit-identical inference results to policy() at the moment of the
  /// call, and is immune to later training updates: the serving layer's
  /// non-blocking policy-swap primitive. Fails if not trained. Must not run
  /// concurrently with a training update (the caller serializes
  /// snapshot-vs-train, e.g. PlanServer's update mutex).
  Result<std::unique_ptr<PolicySnapshot>> SnapshotPolicy();

  /// Shared validation for the planning entry points: trained, and the
  /// query fits the featurizer capacity. Public so serving layers can
  /// validate requests without entering the facade's serial planning
  /// path.
  Status CheckReadyToPlan(const Query& query) const;

  /// Per-iteration diagnostics of every RefineWithTeacher call so far
  /// (appended in call order).
  const std::vector<TeacherIterationStats>& teacher_stats() const {
    return teacher_stats_;
  }

  /// The cross-call experience pool of discovered plans; nullptr until the
  /// first RefineWithTeacher call.
  const ExperiencePool* teacher_pool() const { return teacher_pool_.get(); }

 private:
  /// Runs `search` for `query` on `env` (thread-safe with distinct
  /// env/ws) and returns the finished plan. `planning_ms_out` optional.
  Result<PlanNodePtr> PlanOnEnv(FullPipelineEnv* env, const Query& query,
                                MlpWorkspace* ws, const SearchConfig& search,
                                double* planning_ms_out,
                                SearchScratch* scratch);

  /// Validates every query against the featurizer's configured capacity
  /// (RejoinFeaturizer::CheckCapacity), so oversized workload queries
  /// surface as a descriptive InvalidArgument at the facade boundary
  /// instead of a featurizer crash inside a rollout worker.
  Status CheckWorkloadCapacity(const std::vector<Query>& workload) const;

  Engine* engine_;
  HandsFreeConfig config_;
  /// Baselines for EvaluateOnEnv: the engine's cost model with the
  /// enumerator pinned to exhaustive DP resp. genetic search. Stateless
  /// (safe to share across evaluation threads).
  std::unique_ptr<TraditionalOptimizer> dp_baseline_;
  std::unique_ptr<TraditionalOptimizer> geqo_baseline_;
  std::unique_ptr<RejoinFeaturizer> featurizer_;
  /// The incremental strategy's training reward (null otherwise).
  std::unique_ptr<NegLogLatencyReward> latency_reward_;
  std::unique_ptr<FullPipelineEnv> env_;
  /// Strategy-agnostic frozen inference view over the active backend's
  /// model; the policy every plan-time search queries.
  std::unique_ptr<FrozenPolicy> frozen_policy_;
  // Strategy backends (one non-null, per config).
  std::unique_ptr<DemonstrationLearner> lfd_;
  std::unique_ptr<BootstrapTrainer> bootstrap_;
  std::unique_ptr<WorkloadGenerator> curriculum_generator_;
  std::unique_ptr<IncrementalTrainer> incremental_;
  /// Search-as-teacher state (lazily created by RefineWithTeacher).
  std::unique_ptr<ExperiencePool> teacher_pool_;
  std::vector<TeacherIterationStats> teacher_stats_;
  /// Reusable inference scratch behind Optimize: the MLP workspace and
  /// search memory persist across queries instead of being rebuilt per
  /// call (searchers clear the scratch at the start of every search).
  /// EvaluateOnEnv callers bring their own pair per worker instead.
  MlpWorkspace plan_ws_;
  SearchScratch plan_scratch_;
  bool trained_ = false;
};

}  // namespace hfq

#endif  // HFQ_CORE_HANDS_FREE_H_
