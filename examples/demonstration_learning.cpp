// demonstration_learning: the Section 5.1 recipe end to end —
//   collect expert episode histories -> pre-train the reward predictor ->
//   fine-tune on self-generated plans -> watch slip detection work.
//
// Run:  ./examples/demonstration_learning
#include <cstdio>

#include "core/demonstration.h"
#include "core/engine.h"
#include "core/full_env.h"
#include "util/logging.h"
#include "workload/generator.h"

using namespace hfq;  // NOLINT — examples favour brevity.

int main() {
  SetLogLevel(LogLevel::kWarning);
  EngineOptions options;
  options.imdb.scale = 0.1;
  auto engine_result = Engine::CreateImdbLike(options);
  if (!engine_result.ok()) return 1;
  Engine& engine = **engine_result;

  WorkloadGenerator generator(&engine.catalog(), 515, QueryShapeOptions(),
                              &engine.db());
  std::vector<Query> workload;
  for (int i = 0; i < 8; ++i) {
    auto q = generator.GenerateQuery(5, "demo" + std::to_string(i));
    if (!q.ok()) return 1;
    workload.push_back(std::move(*q));
  }

  RejoinFeaturizer featurizer(6, &engine.estimator());
  FullPipelineEnv env(&featurizer, &engine.expert());

  LfdConfig config;
  config.pretrain_steps = 800;
  DemonstrationLearner learner(&env, &engine, config, 99);

  // Steps 1-2: the expert demonstrates; latencies are recorded.
  auto collected = learner.CollectDemonstrations(workload);
  if (!collected.ok()) return 1;
  std::printf("step 1-2: collected %d (state, action) pairs from expert "
              "episodes\n",
              *collected);

  // Step 3: pre-train the reward prediction function.
  double loss = learner.Pretrain();
  std::printf("step 3:   pre-trained reward predictor (final loss %.4f, "
              "mean abs err %.3f)\n",
              loss, learner.predictor().EvaluateError(256));

  // Step 4: fine-tune by planning queries itself.
  std::printf("step 4:   fine-tuning on self-generated plans\n");
  for (int e = 0; e < 120; ++e) {
    LfdEpisodeStats stats =
        learner.FineTuneEpisode(workload[static_cast<size_t>(e) %
                                         workload.size()]);
    if ((e + 1) % 30 == 0) {
      std::printf("  episode %-4d %-8s latency %8.1f ms%s\n", e + 1,
                  stats.query_name.c_str(), stats.latency_ms,
                  stats.slip_retrained ? "  [slip -> re-trained on expert]"
                                       : "");
    }
  }

  // Compare against the expert.
  std::printf("\n%-8s %14s %14s\n", "query", "expert ms", "learned ms");
  for (const Query& q : workload) {
    auto expert = engine.RunExpert(q);
    if (!expert.ok()) continue;
    std::printf("%-8s %14.1f %14.1f\n", q.name.c_str(), expert->latency_ms,
                learner.EvaluateQuery(q));
  }
  return 0;
}
