// SEC53-INC — Section 5.3 / Figures 6-8: incremental learning. Two parts:
//  (1) the Figure 6 complexity grid, measured: for each (pipeline-prefix,
//      relation-count) cell, train a fresh agent with a fixed small budget
//      and report how close it gets to the expert — the lower-left cells
//      are learnable quickly, the upper-right are not;
//  (2) the Figure 7 decompositions compared end-to-end: Flat vs Pipeline
//      vs Relations vs Hybrid curricula with the same total budget,
//      evaluated greedily on a held-out workload.
#include "bench/bench_common.h"
#include "core/incremental.h"

using namespace hfq;         // NOLINT
using namespace hfq::bench;  // NOLINT

namespace {

// Mean greedy plan cost relative to expert over a workload.
double EvaluateAgent(Engine* engine, FullPipelineEnv* env,
                     PolicyGradientAgent* agent,
                     const std::vector<Query>& holdout) {
  double ratio_sum = 0.0;
  for (const Query& q : holdout) {
    env->SetQuery(&q);
    env->Reset();
    while (!env->Done()) {
      std::vector<double> s = env->StateVector();
      std::vector<bool> m = env->ActionMask();
      env->Step(agent->GreedyAction(s, m));
    }
    auto expert = engine->expert().Optimize(q);
    HFQ_CHECK(expert.ok());
    ratio_sum += env->FinalPlan()->est_cost /
                 std::max(1.0, (*expert)->est_cost);
  }
  return ratio_sum / static_cast<double>(holdout.size());
}

}  // namespace

int main() {
  PrintHeader(
      "SEC53-INC  incremental learning: complexity grid + curriculum "
      "comparison",
      "difficulty grows along both axes of Fig 6; staged curricula (Fig 7) "
      "beat flat training at equal budget");

  auto engine = MakeEngine();
  const int kMaxRelations = 8;
  RejoinFeaturizer featurizer(kMaxRelations, &engine->estimator());
  NegLogCostReward reward;

  // ---------- Part 1: the measured Figure 6 grid. ----------
  std::printf(
      "Figure 6 grid: mean greedy cost vs expert (x100%%) after a fixed "
      "200-episode budget\nrows: #relations; columns: pipeline prefix "
      "(1=join order ... 4=+aggregates)\n\n");
  std::printf("%-8s", "#rels");
  for (int k = 1; k <= 4; ++k) std::printf("  prefix-%d", k);
  std::printf("\n");
  PrintRule(48);
  for (int n : {2, 4, 6, 8}) {
    std::printf("%-8d", n);
    for (int k = 1; k <= 4; ++k) {
      WorkloadGenerator gen(&engine->catalog(),
                            static_cast<uint64_t>(n * 10 + k));
      auto train = gen.GenerateFixedSizeWorkload(
          8, n, "grid" + std::to_string(n) + "_" + std::to_string(k) + "_");
      HFQ_CHECK(train.ok());
      FullEnvConfig config;
      config.stages = PipelineStages::Prefix(k);
      FullPipelineEnv env(&featurizer, &engine->expert(), config);
      PolicyGradientConfig pg;
      pg.hidden_dims = {64, 64};
      PolicyGradientAgent agent(env.state_dim(), env.action_dim(), pg,
                                static_cast<uint64_t>(n * 100 + k));
      std::vector<Episode> pending;
      for (int e = 0; e < 200; ++e) {
        const Query& q = (*train)[static_cast<size_t>(e) % train->size()];
        env.SetQuery(&q);
        env.Reset();
        Episode episode;
        while (!env.Done()) {
          Transition t;
          t.state = env.StateVector();
          t.mask = env.ActionMask();
          t.action = agent.SampleAction(t.state, t.mask, &t.old_prob);
          env.Step(t.action);
          episode.steps.push_back(std::move(t));
        }
        if (!episode.steps.empty()) {
          episode.steps.back().reward =
              reward.Score(q, *env.FinalPlan()).reward;
          pending.push_back(std::move(episode));
          if (pending.size() >= 8) {
            agent.Update(pending);
            pending.clear();
          }
        }
      }
      double ratio = EvaluateAgent(engine.get(), &env, &agent, *train);
      std::printf("  %7.0f%%", 100.0 * ratio);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  // ---------- Part 2: curricula at equal budget (Figure 7). ----------
  WorkloadGenerator holdout_gen(&engine->catalog(), 5353, QueryShapeOptions(),
                          &engine->db());
  std::vector<Query> holdout;
  for (int i = 0; i < 10; ++i) {
    auto q = holdout_gen.GenerateQuery(4 + i % 5,
                                       "hold" + std::to_string(i));
    HFQ_CHECK(q.ok());
    holdout.push_back(std::move(*q));
  }

  const int kBudget = 2000;
  std::printf(
      "\nFigure 7 decompositions: %d-episode budget, full pipeline at "
      "evaluation\n\n%-12s %-26s\n",
      kBudget, "curriculum", "holdout mean cost vs expert");
  PrintRule(48);
  for (CurriculumKind kind :
       {CurriculumKind::kFlat, CurriculumKind::kPipeline,
        CurriculumKind::kRelations, CurriculumKind::kHybrid}) {
    FullPipelineEnv env(&featurizer, &engine->expert());
    WorkloadGenerator gen(&engine->catalog(), 5400, QueryShapeOptions(),
                          &engine->db());
    PolicyGradientConfig pg;
    pg.hidden_dims = {128, 128};
    IncrementalTrainer trainer(&env, &reward, &gen, pg, 8, 53);
    auto phases = BuildCurriculum(kind, kBudget, kMaxRelations);
    Status status = trainer.Run(phases, /*queries_per_phase=*/16);
    HFQ_CHECK_MSG(status.ok(), "curriculum run failed");
    env.set_stages(PipelineStages::All());
    double ratio =
        EvaluateAgent(engine.get(), &env, &trainer.agent(), holdout);
    std::printf("%-12s %25.0f%%\n", CurriculumKindName(kind), 100.0 * ratio);
    std::fflush(stdout);
  }
  PrintRule(48);
  std::printf(
      "shape check: grid difficulty increases toward the upper-right;\n"
      "curricula (pipeline/relations/hybrid) should land at or below "
      "flat.\n");
  return 0;
}
