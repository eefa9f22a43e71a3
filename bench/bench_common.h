// Shared infrastructure for the figure/claim benches: engine construction
// at bench scale, the JOB-like suite, ReJOIN training wiring (the pipeline
// env with only its join-order stage), and small table-printing helpers.
// Every bench is deterministic (fixed seeds).
#ifndef HFQ_BENCH_BENCH_COMMON_H_
#define HFQ_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/full_env.h"
#include "core/pg_trainer.h"
#include "core/reward.h"
#include "rl/search_context.h"
#include "search/plan_search.h"
#include "util/check.h"
#include "util/logging.h"
#include "workload/generator.h"

namespace hfq {
namespace bench {

/// The benchmark database: IMDB-like at scale `scale` (0.2 by default:
/// title 4k rows, cast_info 20k rows — large enough for real operator
/// tradeoffs, small enough that every bench finishes in tens of seconds).
inline std::unique_ptr<Engine> MakeEngine(double scale = 0.2,
                                          uint64_t seed = 42) {
  SetLogLevel(LogLevel::kError);
  EngineOptions options;
  options.imdb.scale = scale;
  options.data_seed = seed;
  auto engine = Engine::CreateImdbLike(options);
  HFQ_CHECK_MSG(engine.ok(), "bench engine construction failed");
  return std::move(*engine);
}

/// The JOB-like workload: 22 families x 4 variants spanning 4-17 relations
/// (names q1a...q22d), mirroring the suite the paper trains and evaluates
/// ReJOIN on.
inline std::vector<Query> MakeJobSuite(Engine* engine,
                                       uint64_t seed = 2019) {
  WorkloadGenerator generator(&engine->catalog(), seed, QueryShapeOptions(),
                              &engine->db());
  auto suite = generator.GenerateJobLikeSuite(/*families=*/22,
                                              /*variants=*/4,
                                              /*min_relations=*/4,
                                              /*max_relations=*/17);
  HFQ_CHECK_MSG(suite.ok(), "workload generation failed");
  return std::move(*suite);
}

/// A latency-experiment workload: queries whose *expert* plan simulates
/// within [min_ms, max_ms]. Mirrors how curated suites (JOB) select
/// realistic queries — substantial but bounded work — so latency rewards
/// carry signal. Relation counts cycle over [min_rels, max_rels].
inline std::vector<Query> MakeLatencyWorkload(Engine* engine, int count,
                                              int min_rels, int max_rels,
                                              uint64_t seed,
                                              double min_ms = 5.0,
                                              double max_ms = 60000.0) {
  WorkloadGenerator generator(&engine->catalog(), seed, QueryShapeOptions(),
                              &engine->db());
  std::vector<Query> workload;
  int attempts = 0;
  while (static_cast<int>(workload.size()) < count && attempts < count * 60) {
    ++attempts;
    int n = min_rels + static_cast<int>(workload.size() + attempts) %
                           (max_rels - min_rels + 1);
    auto q = generator.GenerateQuery(
        n, "lw" + std::to_string(seed) + "_" + std::to_string(attempts));
    HFQ_CHECK(q.ok());
    auto expert = engine->RunExpert(*q);
    HFQ_CHECK(expert.ok());
    if (expert->latency_ms < min_ms || expert->latency_ms > max_ms) continue;
    workload.push_back(std::move(*q));
  }
  HFQ_CHECK_MSG(static_cast<int>(workload.size()) == count,
                "could not curate a latency workload; widen the band");
  return workload;
}

/// ReJOIN's default reward, -log10(M(t) / expert cost): the same optimum
/// per query as the paper's 1/M(t), but comparable across queries, which
/// stabilizes one policy trained over a heterogeneous suite. Fig 3a's
/// window metric (cost relative to the expert) is recovered exactly as
/// 10^(-reward). The expert plans each query once, on first sight; safe to
/// share across rollout workers.
class ExpertNormalizedCostReward : public RewardSignal {
 public:
  explicit ExpertNormalizedCostReward(Engine* engine) : engine_(engine) {}

  PlanScore Score(const Query& query, const PlanNode& plan) override {
    return {-std::log10(std::max(1.0, plan.est_cost) / ExpertCost(query)),
            plan.est_cost};
  }
  std::string name() const override { return "expert_normalized_cost"; }

 private:
  double ExpertCost(const Query& query) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = expert_cost_.find(query.name);
    if (it == expert_cost_.end()) {
      auto expert_plan = engine_->expert().Optimize(query);
      HFQ_CHECK(expert_plan.ok());
      it = expert_cost_
               .emplace(query.name, std::max(1.0, (*expert_plan)->est_cost))
               .first;
    }
    return it->second;
  }

  Engine* engine_;
  std::mutex mu_;
  std::map<std::string, double> expert_cost_;
};

/// The ReJOIN setup of the paper's case study, wired to one engine: the
/// pipeline env with only its join-order stage enabled, so the expert
/// physicalizes every join order the agent picks (paper Section 3), and
/// the policy-gradient trainer, which scores each episode's plan. The
/// reward is expert-normalized by default, or the paper-literal 1/M(t)
/// (`expert_normalized` = false).
struct RejoinHarness {
  RejoinHarness(Engine* engine, int max_relations,
                PolicyGradientConfig pg = PolicyGradientConfig(),
                int episodes_per_update = 8, int num_rollout_workers = 1,
                uint64_t seed = 7, bool expert_normalized = true)
      : featurizer(max_relations, &engine->estimator()),
        reward(expert_normalized
                   ? std::unique_ptr<RewardSignal>(
                         std::make_unique<ExpertNormalizedCostReward>(engine))
                   : std::make_unique<ReciprocalCostReward>(1e5)),
        env(&featurizer, &engine->expert()),
        trainer(&env, reward.get(), pg, episodes_per_update,
                num_rollout_workers, seed) {
    env.set_stages(PipelineStages::JoinOrderOnly());
  }

  /// Plans `query` with the trained policy through `search` (greedy by
  /// default), as HandsFreeOptimizer::PlanOnEnv does, and returns the
  /// finished plan (owned by `env`, valid until its next episode).
  /// `planning_ms_out` receives the search's charge: pure inference time
  /// for greedy (the Figure 3c metric), every rollout and expansion for
  /// the other modes.
  const PlanNode* Plan(const Query& query,
                       const SearchConfig& search = SearchConfig(),
                       double* planning_ms_out = nullptr,
                       SearchResult* result_out = nullptr) {
    env.SetQuery(&query);
    AgentPolicy policy(&trainer.agent());
    SearchContext ctx{&policy, /*rng=*/nullptr, &ws, &scratch};
    auto result = MakePlanSearch(search)->Search(&env, ctx);
    HFQ_CHECK_MSG(result.ok(), "plan search failed");
    if (planning_ms_out != nullptr) *planning_ms_out = result->planning_ms;
    if (result_out != nullptr) *result_out = std::move(*result);
    return env.FinalPlan();
  }

  RejoinFeaturizer featurizer;
  std::unique_ptr<RewardSignal> reward;
  FullPipelineEnv env;
  PolicyGradientTrainer trainer;
  /// Planning scratch, reused across queries.
  MlpWorkspace ws;
  SearchScratch scratch;
};

/// The Fig-3a training schedule: decay learning rate and entropy twice.
inline void ApplyRejoinSchedule(PolicyGradientAgent* agent, int episode,
                                int total_episodes) {
  if (episode == total_episodes / 3) {
    agent->set_policy_learning_rate(5e-4);
    agent->set_entropy_coef(0.005);
  } else if (episode == 2 * total_episodes / 3) {
    agent->set_policy_learning_rate(2e-4);
    agent->set_entropy_coef(0.002);
  }
}

/// Formats a (possibly astronomical) simulated latency for humans.
inline std::string HumanTime(double ms) {
  char buf[64];
  if (ms < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", ms);
  } else if (ms < 60e3) {
    std::snprintf(buf, sizeof(buf), "%.1f s", ms / 1e3);
  } else if (ms < 3.6e6) {
    std::snprintf(buf, sizeof(buf), "%.1f min", ms / 6e4);
  } else if (ms < 8.64e7) {
    std::snprintf(buf, sizeof(buf), "%.1f hours", ms / 3.6e6);
  } else if (ms < 3.156e10) {
    std::snprintf(buf, sizeof(buf), "%.1f days", ms / 8.64e7);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2g years", ms / 3.156e10);
  }
  return buf;
}

/// Prints a rule line like "----" sized to `width`.
inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Prints the standard bench header naming the reproduced artifact.
inline void PrintHeader(const std::string& artifact,
                        const std::string& paper_claim) {
  PrintRule(78);
  std::printf("%s\n", artifact.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  PrintRule(78);
}

}  // namespace bench
}  // namespace hfq

#endif  // HFQ_BENCH_BENCH_COMMON_H_
