// train_rejoin: the paper's Section 3 case study as a runnable example.
// Trains a ReJOIN join-order enumerator on a JOB-like workload and
// compares its greedy plans against the traditional optimizer, on both
// the cost model's terms and the latency simulator's. ReJOIN is the
// pipeline env with only its join-order stage enabled: the agent picks the
// join order, and the traditional optimizer does the rest.
//
// Run:  ./examples/train_rejoin [episodes]   (default 1500)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/engine.h"
#include "core/full_env.h"
#include "core/pg_trainer.h"
#include "core/reward.h"
#include "rl/search_context.h"
#include "search/plan_search.h"
#include "util/logging.h"
#include "workload/generator.h"

using namespace hfq;  // NOLINT — examples favour brevity.

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const int episodes = argc > 1 ? std::atoi(argv[1]) : 1500;

  EngineOptions options;
  options.imdb.scale = 0.1;
  auto engine_result = Engine::CreateImdbLike(options);
  if (!engine_result.ok()) return 1;
  Engine& engine = **engine_result;

  WorkloadGenerator generator(&engine.catalog(), 303, QueryShapeOptions(),
                              &engine.db());
  auto workload = generator.GenerateJobLikeSuite(/*families=*/10,
                                                 /*variants=*/2,
                                                 /*min_relations=*/4,
                                                 /*max_relations=*/9);
  if (!workload.ok()) return 1;
  std::printf("workload: %zu queries (4-9 relations)\n", workload->size());

  // ReJOIN: join ordering learned; access paths / operators / aggregates
  // delegated to the traditional optimizer (paper Section 3).
  RejoinFeaturizer featurizer(9, &engine.estimator());
  ReciprocalCostReward reward(1e5);  // Paper: 1/M(t).
  FullPipelineEnv env(&featurizer, &engine.expert());
  env.set_stages(PipelineStages::JoinOrderOnly());
  PolicyGradientConfig pg;
  pg.hidden_dims = {128, 128};
  PolicyGradientTrainer trainer(&env, &reward, pg, /*episodes_per_update=*/8,
                                /*num_rollout_workers=*/1, /*seed=*/42);

  std::printf("training for %d episodes...\n", episodes);
  double window = 0.0;
  int window_n = 0;
  trainer.Train(*workload, episodes, [&](const TrainedEpisode& episode) {
    window += episode.reward;
    ++window_n;
    if ((episode.index + 1) % 300 == 0) {
      std::printf("  episode %-6d mean reward %.4f\n", episode.index + 1,
                  window / window_n);
      window = 0.0;
      window_n = 0;
    }
  });

  std::printf("\n%-8s %-5s %12s %12s %10s %10s\n", "query", "rels",
              "expert cost", "rejoin cost", "expert ms", "rejoin ms");
  AgentPolicy policy(&trainer.agent());
  MlpWorkspace ws;
  SearchContext ctx{&policy, /*rng=*/nullptr, &ws};
  std::unique_ptr<PlanSearch> greedy = MakePlanSearch(SearchConfig());
  double cost_ratio = 0.0;
  for (const Query& q : *workload) {
    auto expert = engine.RunExpert(q);
    if (!expert.ok()) continue;
    env.SetQuery(&q);
    if (!greedy->Search(&env, ctx).ok()) continue;
    const PlanNode* plan = env.FinalPlan();
    double rejoin_ms = engine.latency().SimulateMs(q, *plan);
    cost_ratio += plan->est_cost / std::max(1.0, expert->cost);
    std::printf("%-8s %-5d %12.0f %12.0f %10.1f %10.1f\n", q.name.c_str(),
                q.num_relations(), expert->cost, plan->est_cost,
                expert->latency_ms, rejoin_ms);
  }
  std::printf("\nmean cost ratio (rejoin/expert): %.2fx\n",
              cost_ratio / static_cast<double>(workload->size()));
  return 0;
}
