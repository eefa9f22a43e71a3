// curriculum: Section 5.3's incremental learning — builds the Pipeline,
// Relations, and Hybrid curricula (Figure 7), prints their phase plans,
// and trains a small agent through one of them.
//
// Run:  ./examples/curriculum [flat|pipeline|relations|hybrid]
#include <cstdio>
#include <cstring>

#include "core/engine.h"
#include "core/incremental.h"
#include "util/logging.h"

using namespace hfq;  // NOLINT — examples favour brevity.

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  CurriculumKind kind = CurriculumKind::kHybrid;
  if (argc > 1) {
    if (!std::strcmp(argv[1], "flat")) kind = CurriculumKind::kFlat;
    if (!std::strcmp(argv[1], "pipeline")) kind = CurriculumKind::kPipeline;
    if (!std::strcmp(argv[1], "relations")) {
      kind = CurriculumKind::kRelations;
    }
  }

  EngineOptions options;
  options.imdb.scale = 0.1;
  auto engine_result = Engine::CreateImdbLike(options);
  if (!engine_result.ok()) return 1;
  Engine& engine = **engine_result;

  // Show all four curricula side by side.
  for (CurriculumKind k :
       {CurriculumKind::kFlat, CurriculumKind::kPipeline,
        CurriculumKind::kRelations, CurriculumKind::kHybrid}) {
    auto phases = BuildCurriculum(k, /*total_episodes=*/600,
                                  /*max_relations=*/6);
    std::printf("%-10s:", CurriculumKindName(k));
    for (const auto& phase : phases) {
      std::printf(" [%s: stages=%d rels<=%d eps=%d]", phase.label.c_str(),
                  phase.stages.CountEnabled(), phase.max_relations,
                  phase.episodes);
    }
    std::printf("\n");
  }

  // Train through the chosen curriculum.
  std::printf("\ntraining through the '%s' curriculum...\n",
              CurriculumKindName(kind));
  RejoinFeaturizer featurizer(6, &engine.estimator());
  NegLogCostReward reward;
  FullPipelineEnv env(&featurizer, &engine.expert());
  WorkloadGenerator generator(&engine.catalog(), 606, QueryShapeOptions(),
                              &engine.db());
  PolicyGradientConfig pg;
  pg.hidden_dims = {64, 64};
  IncrementalTrainer trainer(&env, &reward, &generator, pg, 8, 77);

  auto phases = BuildCurriculum(kind, 600, 6);
  int last_phase = -1;
  Status status = trainer.Run(
      phases, /*queries_per_phase=*/12,
      [&](const CurriculumEpisodeStats& stats) {
        if (stats.phase_index != last_phase) {
          last_phase = stats.phase_index;
          std::printf("  phase %d (%s) begins at episode %d\n",
                      stats.phase_index,
                      phases[static_cast<size_t>(stats.phase_index)]
                          .label.c_str(),
                      stats.global_episode);
        }
      });
  if (!status.ok()) {
    std::fprintf(stderr, "training failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // Evaluate greedily on fresh queries with the full pipeline enabled.
  env.set_stages(PipelineStages::All());
  double ratio_sum = 0.0;
  const int kEval = 8;
  for (int i = 0; i < kEval; ++i) {
    auto q = generator.GenerateQuery(5, "eval" + std::to_string(i));
    if (!q.ok()) return 1;
    env.SetQuery(&*q);
    env.Reset();
    while (!env.Done()) {
      std::vector<double> s = env.StateVector();
      std::vector<bool> m = env.ActionMask();
      env.Step(trainer.agent().GreedyAction(s, m));
    }
    auto expert = engine.expert().Optimize(*q);
    if (!expert.ok()) return 1;
    ratio_sum += env.FinalPlan()->est_cost / (*expert)->est_cost;
  }
  std::printf("done. holdout mean plan cost = %.0f%% of expert\n",
              100.0 * ratio_sum / kEval);
  return 0;
}
