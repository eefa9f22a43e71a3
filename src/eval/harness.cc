#include "eval/harness.h"

#include <algorithm>

#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hfq {

ScenarioEvaluator::ScenarioEvaluator(EvalConfig config)
    : config_(std::move(config)) {}

Result<ScenarioEvaluator::ProfileContext> ScenarioEvaluator::BuildProfile(
    const DataProfile& profile) {
  ProfileContext ctx;
  EngineOptions options;
  options.imdb.scale = config_.engine_scale;
  options.data_gen.skew_scale = profile.skew_scale;
  HFQ_ASSIGN_OR_RETURN(ctx.engine, Engine::CreateImdbLike(options));

  // Capacity sizing spans every tier: the featurizer's fixed-size encoding
  // must admit the band's large-join queries too, or planning them would
  // be rejected at the facade boundary.
  int max_relations = *std::max_element(config_.relation_counts.begin(),
                                        config_.relation_counts.end());
  for (int n : config_.band_relation_counts) {
    max_relations = std::max(max_relations, n);
  }
  HandsFreeConfig facade_config;
  facade_config.strategy = config_.strategy;
  facade_config.max_relations = max_relations;
  facade_config.training_episodes = config_.training_episodes;
  facade_config.seed = config_.seed;
  // Training stays serial regardless of the harness's cell fan-out, so the
  // learned policy is identical for every worker count.
  facade_config.num_rollout_workers = 1;
  facade_config.teacher_search = config_.teacher_mode;
  ctx.facade =
      std::make_unique<HandsFreeOptimizer>(ctx.engine.get(), facade_config);

  // JOB-like training suite over the full relation-count range; literals
  // come from the materialized data so predicates stay non-degenerate.
  WorkloadGenerator train_gen(&ctx.engine->catalog(),
                              config_.seed ^ 0x7261A17ull,
                              QueryShapeOptions(), &ctx.engine->db());
  HFQ_ASSIGN_OR_RETURN(
      std::vector<Query> training,
      train_gen.GenerateJobLikeSuite(config_.training_families,
                                     /*variants=*/1, /*min_relations=*/2,
                                     max_relations));
  HFQ_RETURN_IF_ERROR(ctx.facade->Train(training));

  if (config_.teacher_iterations > 0) {
    // The teacher workload is the training suite plus one query per
    // (topology, relation count) combination of the matrix, so the teacher
    // also discovers plans for shapes (e.g. cliques) the JOB-like suite
    // underrepresents. Its own derived seed keeps the cells' private query
    // streams untouched.
    std::vector<Query> teacher_workload = training;
    WorkloadGenerator teach_gen(&ctx.engine->catalog(),
                                config_.seed ^ 0x7EAC4E5ull,
                                config_.predicate_mixes[0].shape,
                                &ctx.engine->db());
    // One teacher query per (topology, relation count) of the regular
    // matrix AND the band, so search discovers large-join plans the
    // JOB-like suite's episode mix underrepresents.
    auto add_teacher_shape = [&](JoinTopology topology,
                                 int n) -> Status {
      HFQ_ASSIGN_OR_RETURN(
          Query query,
          teach_gen.GenerateTopologyQuery(
              topology, n,
              StrFormat("teach_%s_r%d", JoinTopologyName(topology), n)));
      teacher_workload.push_back(std::move(query));
      return Status::OK();
    };
    for (JoinTopology topology : config_.topologies) {
      for (int n : config_.relation_counts) {
        HFQ_RETURN_IF_ERROR(add_teacher_shape(topology, n));
      }
    }
    for (JoinTopology topology : config_.band_topologies) {
      for (int n : config_.band_relation_counts) {
        HFQ_RETURN_IF_ERROR(add_teacher_shape(topology, n));
      }
    }
    TeacherConfig teacher;
    teacher.iterations = config_.teacher_iterations;
    HFQ_RETURN_IF_ERROR(
        ctx.facade->RefineWithTeacher(teacher_workload, teacher));
  }

  for (int w = 0; w < config_.num_workers; ++w) {
    ctx.envs.push_back(ctx.facade->MakeWorkerEnv());
  }
  return ctx;
}

Result<EvalReport> ScenarioEvaluator::Run() {
  HFQ_RETURN_IF_ERROR(ValidateEvalConfig(config_));
  Stopwatch total_watch;

  EvalReport report;
  report.config = config_;

  Stopwatch train_watch;
  std::vector<ProfileContext> profiles;
  for (const DataProfile& profile : config_.data_profiles) {
    HFQ_ASSIGN_OR_RETURN(ProfileContext ctx, BuildProfile(profile));
    profiles.push_back(std::move(ctx));
  }
  report.train_ms = train_watch.ElapsedMillis();

  const std::vector<ScenarioCell> cells = BuildScenarioCells(config_);
  report.cells.resize(cells.size());
  std::vector<Status> errors(cells.size(), Status::OK());

  const int num_workers = config_.num_workers;
  std::unique_ptr<ThreadPool> pool;
  if (num_workers > 1) pool = std::make_unique<ThreadPool>(num_workers);

  RunOnWorkers(pool.get(), num_workers, [&](int w) {
    MlpWorkspace ws;
    SearchScratch scratch;
    for (size_t ci = static_cast<size_t>(w); ci < cells.size();
         ci += static_cast<size_t>(num_workers)) {
      const ScenarioCell& cell = cells[ci];
      ProfileContext& ctx =
          profiles[static_cast<size_t>(cell.data_profile)];
      FullPipelineEnv* env = ctx.envs[static_cast<size_t>(w)].get();
      // The cell's private generator: deterministic per (seed, cell),
      // independent of worker assignment.
      WorkloadGenerator gen(
          &ctx.engine->catalog(), cell.seed,
          config_.predicate_mixes[static_cast<size_t>(cell.predicate_mix)]
              .shape,
          &ctx.engine->db());
      const size_t num_modes = config_.search_modes.size();
      // Baseline tiering: exhaustive DP only where it is feasible; the
      // large-join tier is scored against GEQO (see QueryEvaluation).
      const bool with_dp = cell.num_relations <= config_.dp_max_relations;
      CellResult result;
      result.cell = cell;
      result.has_dp = with_dp;
      result.more_rows.resize(num_modes - 1);
      for (int qi = 0; qi < config_.queries_per_cell; ++qi) {
        // Names are unique per (engine, cell, query).
        auto query = gen.GenerateTopologyQuery(
            cell.topology, cell.num_relations,
            StrFormat("s%llu_c%d_q%d",
                      static_cast<unsigned long long>(config_.seed),
                      cell.index, qi));
        if (!query.ok()) {
          errors[ci] = query.status();
          return;
        }
        auto row = ctx.facade->EvaluateOnEnv(env, *query, &ws,
                                             config_.search_modes[0],
                                             config_.plan_repeats, &scratch,
                                             with_dp,
                                             config_.measured_exec);
        if (!row.ok()) {
          errors[ci] = row.status();
          return;
        }
        // Additional search modes re-plan the learned side only; the
        // DP/GEQO columns carry over so every mode row is a complete,
        // regret-computable QueryEvaluation.
        for (size_t m = 1; m < num_modes; ++m) {
          auto learned = ctx.facade->EvaluateLearnedOnEnv(
              env, *query, &ws, config_.search_modes[m],
              config_.plan_repeats, &scratch);
          if (!learned.ok()) {
            errors[ci] = learned.status();
            return;
          }
          HandsFreeOptimizer::QueryEvaluation mode_row = *row;
          mode_row.learned_cost = learned->cost;
          mode_row.learned_latency_ms = learned->latency_ms;
          mode_row.learned_planning_ms = learned->planning_ms;
          // Measured execution covers mode 0's plan only; carrying its
          // wall clock onto a different mode's plan would be wrong.
          mode_row.exec_ran = false;
          mode_row.learned_exec_ms = 0.0;
          mode_row.baseline_exec_ms = 0.0;
          result.more_rows[m - 1].push_back(mode_row);
        }
        result.rows.push_back(*row);
      }
      result.learned = ComputePlannerStats(result.rows, Planner::kLearned);
      if (with_dp) {
        result.dp = ComputePlannerStats(result.rows, Planner::kDp);
      }
      result.geqo = ComputePlannerStats(result.rows, Planner::kGeqo);
      for (const auto& mode_rows : result.more_rows) {
        result.more_search.push_back(
            ComputePlannerStats(mode_rows, Planner::kLearned));
      }
      report.cells[ci] = std::move(result);
    }
  });
  for (const Status& status : errors) {
    HFQ_RETURN_IF_ERROR(status);
  }

  // Aggregates over every row, in cell order (worker-count independent).
  // The DP aggregate covers only the rows where DP actually ran — its
  // num_queries tells a reader how many; learned/GEQO aggregates span
  // both tiers (each row's regret is against its own baseline).
  std::vector<HandsFreeOptimizer::QueryEvaluation> all_rows, dp_rows;
  for (const CellResult& cell : report.cells) {
    all_rows.insert(all_rows.end(), cell.rows.begin(), cell.rows.end());
    if (cell.has_dp) {
      dp_rows.insert(dp_rows.end(), cell.rows.begin(), cell.rows.end());
    }
  }
  report.agg_learned = ComputePlannerStats(all_rows, Planner::kLearned);
  report.agg_dp = ComputePlannerStats(dp_rows, Planner::kDp);
  report.agg_geqo = ComputePlannerStats(all_rows, Planner::kGeqo);
  for (size_t m = 1; m < config_.search_modes.size(); ++m) {
    std::vector<HandsFreeOptimizer::QueryEvaluation> mode_rows;
    for (const CellResult& cell : report.cells) {
      mode_rows.insert(mode_rows.end(), cell.more_rows[m - 1].begin(),
                       cell.more_rows[m - 1].end());
    }
    report.agg_more_search.push_back(
        ComputePlannerStats(mode_rows, Planner::kLearned));
  }

  report.total_ms = total_watch.ElapsedMillis();
  return report;
}

}  // namespace hfq
