// Tests for the serving layer (src/serve): the EffortModel budget→tier
// selector, and PlanServer's fingerprint cache, policy-generation
// snapshots, and concurrent Plan()/policy-swap behavior. The concurrency
// tests double as the TSan proof for the serving path (this suite runs
// under the sanitizer jobs via the `unit` label).
#include <gtest/gtest.h>

#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/hands_free.h"
#include "plan/physical_plan.h"
#include "serve/effort_model.h"
#include "serve/plan_server.h"
#include "tests/test_common.h"
#include "util/check.h"
#include "workload/generator.h"

namespace hfq {
namespace {

int CountScannedRelations(const PlanNode& node) {
  if (node.children.empty()) return 1;
  int total = 0;
  for (const auto& child : node.children) {
    total += CountScannedRelations(*child);
  }
  return total;
}

HandsFreeConfig TinyServeConfig() {
  HandsFreeConfig config;
  config.strategy = TrainingStrategy::kIncrementalHybrid;
  config.max_relations = 5;
  config.training_episodes = 8;
  config.seed = 23;
  config.incremental_pg.hidden_dims = {32};
  return config;
}

// Query names embed the seed.
std::vector<Query> ServeWorkload(int count, int num_relations,
                                 uint64_t seed) {
  WorkloadGenerator gen(&testing::SharedEngine().catalog(), seed);
  std::vector<Query> workload;
  for (int i = 0; i < count; ++i) {
    auto q = gen.GenerateQuery(num_relations, "sv_s" + std::to_string(seed) +
                                                  "_q" + std::to_string(i));
    HFQ_CHECK(q.ok());
    workload.push_back(std::move(*q));
  }
  return workload;
}

// Same generator seed, caller-chosen name: structurally identical
// queries that differ only in their workload-assigned names.
Query NamedQuery(uint64_t seed, int num_relations, const std::string& name) {
  WorkloadGenerator gen(&testing::SharedEngine().catalog(), seed);
  auto q = gen.GenerateQuery(num_relations, name);
  HFQ_CHECK(q.ok());
  return std::move(*q);
}

// One trained facade shared by the whole suite (training dominates the
// suite's runtime). Tests compare plans within themselves, never against
// absolute weights, so cross-test weight updates are harmless.
HandsFreeOptimizer& TrainedOptimizer() {
  static HandsFreeOptimizer* optimizer = [] {
    auto* opt =
        new HandsFreeOptimizer(&testing::SharedEngine(), TinyServeConfig());
    HFQ_CHECK(opt->Train(ServeWorkload(4, 3, 2000)).ok());
    return opt;
  }();
  return *optimizer;
}

TEST(EffortModelTest, UncalibratedFiniteBudgetStaysOnTierZero) {
  EffortModel model((EffortModelConfig()));
  ASSERT_GE(model.num_tiers(), 3);
  EXPECT_EQ(model.SelectTier(10.0), 0);
  EXPECT_EQ(model.SelectTier(1e9), 0);
  // Unlimited budgets always take the richest tier, calibrated or not.
  EXPECT_EQ(model.SelectTier(0.0), model.num_tiers() - 1);
  EXPECT_EQ(model.SelectTier(-1.0), model.num_tiers() - 1);
  EXPECT_LT(model.EstimateMs(1), 0.0);
}

TEST(EffortModelTest, ObservationsGateSelectionThroughSafetyFactor) {
  EffortModelConfig config;  // safety_factor = 1.5
  EffortModel model(config);
  model.Observe(1, 2.0);   // Affordable from budget >= 3ms.
  model.Observe(2, 10.0);  // Affordable from budget >= 15ms.
  EXPECT_EQ(model.SelectTier(1.0), 0);
  EXPECT_EQ(model.SelectTier(3.0), 1);
  EXPECT_EQ(model.SelectTier(14.9), 1);
  EXPECT_EQ(model.SelectTier(15.0), 2);
  EXPECT_EQ(model.SelectTier(0.0), 2);
}

TEST(EffortModelTest, EwmaFoldsObservations) {
  EffortModelConfig config;
  config.ewma_alpha = 0.5;
  EffortModel model(config);
  model.Observe(0, 4.0);
  EXPECT_DOUBLE_EQ(model.EstimateMs(0), 4.0);  // First observation sets.
  model.Observe(0, 8.0);
  EXPECT_DOUBLE_EQ(model.EstimateMs(0), 6.0);
  EXPECT_NE(model.DebugString().find("greedy"), std::string::npos);
}

TEST(PlanServerTest, PlanBeforePublishFails) {
  PlanServer server(&TrainedOptimizer(), PlanServerConfig());
  auto response = server.Plan(ServeWorkload(1, 3, 2001)[0]);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PlanServerTest, ServesValidPlansAndWarmHitsAreBitIdentical) {
  PlanServer server(&TrainedOptimizer(), PlanServerConfig());
  ASSERT_TRUE(server.PublishPolicy().ok());
  std::vector<Query> workload = ServeWorkload(3, 4, 2002);

  for (const Query& q : workload) {
    auto cold = server.Plan(q);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    ASSERT_NE(cold->plan, nullptr);
    EXPECT_EQ(CountScannedRelations(*cold->plan), q.num_relations());
    EXPECT_FALSE(cold->cache_hit);
    EXPECT_EQ(cold->policy_generation, 1u);
    EXPECT_GE(cold->planning_ms, 0.0);
    EXPECT_GE(cold->service_ms, cold->planning_ms);

    auto warm = server.Plan(q);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm->cache_hit);
    EXPECT_EQ(warm->plan->Fingerprint(), cold->plan->Fingerprint());
    EXPECT_EQ(warm->cost, cold->cost);
    EXPECT_EQ(warm->search_mode, cold->search_mode);
    EXPECT_EQ(warm->policy_generation, cold->policy_generation);
  }

  PlanServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.cold_plans, 3u);
  EXPECT_EQ(stats.cache_hits, 3u);
  EXPECT_EQ(server.cache_stats().insertions, 3u);
}

TEST(PlanServerTest, SameStructureDifferentNameSharesOneCacheEntry) {
  PlanServer server(&TrainedOptimizer(), PlanServerConfig());
  ASSERT_TRUE(server.PublishPolicy().ok());
  // Identical generator seed, different names: same structural
  // fingerprint AND same identity string, so the second query is a warm
  // hit by design (the cache is structural, not name-keyed).
  Query a = NamedQuery(2003, 3, "sv_s2003_alias_a");
  Query b = NamedQuery(2003, 3, "sv_s2003_alias_b");
  ASSERT_EQ(a.StructuralFingerprint(), b.StructuralFingerprint());
  ASSERT_EQ(a.ToSql(), b.ToSql());

  auto cold = server.Plan(a);
  ASSERT_TRUE(cold.ok());
  auto warm = server.Plan(b);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->plan->Fingerprint(), cold->plan->Fingerprint());
}

// A name is not an identity: two differently shaped queries sharing one
// name each get the plan their structure gets under a fresh name, with the
// plan cache on and off.
TEST(PlanServerTest, ReusedNameWithAnotherStructureGetsItsOwnPlan) {
  PlanServerConfig uncached;
  uncached.enable_cache = false;
  PlanServer reference(&TrainedOptimizer(), uncached);
  ASSERT_TRUE(reference.PublishPolicy().ok());
  for (bool enable_cache : {true, false}) {
    PlanServerConfig config;
    config.enable_cache = enable_cache;
    PlanServer server(&TrainedOptimizer(), config);
    ASSERT_TRUE(server.PublishPolicy().ok());
    const std::string name =
        enable_cache ? "sv_s2010_reused" : "sv_s2010_reused_nocache";
    const std::vector<Query> shapes = {NamedQuery(2010, 3, name),
                                       NamedQuery(2011, 4, name)};
    ASSERT_NE(shapes[0].StructuralFingerprint(),
              shapes[1].StructuralFingerprint());
    for (size_t i = 0; i < shapes.size(); ++i) {
      const Query& query = shapes[i];
      Query fresh = query;
      fresh.name = name + "_fresh" + std::to_string(i);
      auto served = server.Plan(query);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      auto expected = reference.Plan(fresh);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      EXPECT_FALSE(served->cache_hit);
      EXPECT_EQ(CountScannedRelations(*served->plan), query.num_relations());
      EXPECT_EQ(served->plan->ToString(query),
                expected->plan->ToString(fresh))
          << "cache " << enable_cache << ", shape " << i;
      EXPECT_EQ(served->cost, expected->cost);
    }
  }
}

TEST(PlanServerTest, PolicySwapInvalidatesCachedPlans) {
  PlanServer server(&TrainedOptimizer(), PlanServerConfig());
  ASSERT_TRUE(server.PublishPolicy().ok());
  Query q = ServeWorkload(1, 4, 2004)[0];

  auto first = server.Plan(q);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(server.Plan(q)->cache_hit);

  // A no-op update still publishes a fresh generation; the cached entry
  // is stamped with the old one and must not serve.
  ASSERT_TRUE(server.ApplyUpdate([](HandsFreeOptimizer*) {
    return Status::OK();
  }).ok());
  EXPECT_EQ(server.policy_generation(), 2u);
  auto after = server.Plan(q);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit);
  EXPECT_EQ(after->policy_generation, 2u);
  EXPECT_GE(server.cache_stats().stale_misses, 1u);
  // And the re-planned entry serves at the new generation.
  EXPECT_TRUE(server.Plan(q)->cache_hit);
}

TEST(PlanServerTest, SnapshotIsIndependentOfTheLiveModel) {
  // A dedicated facade: this test retrains the live model mid-flight,
  // which the shared incremental optimizer's curriculum does not support
  // re-entrantly (bootstrap Train() is, with fresh query names).
  HandsFreeConfig opt_config = TinyServeConfig();
  opt_config.strategy = TrainingStrategy::kCostModelBootstrapping;
  opt_config.bootstrap.pg.hidden_dims = {32};
  opt_config.bootstrap.episodes_per_update = 4;
  HandsFreeOptimizer optimizer(&testing::SharedEngine(), opt_config);
  ASSERT_TRUE(optimizer.Train(ServeWorkload(4, 3, 2012)).ok());

  PlanServerConfig config;
  config.enable_cache = false;  // Every Plan() is a real inference.
  PlanServer server(&optimizer, config);
  ASSERT_TRUE(server.PublishPolicy().ok());
  Query q = ServeWorkload(1, 4, 2005)[0];

  auto before = server.Plan(q);
  ASSERT_TRUE(before.ok());
  // Mutate the live model without publishing (no serving runs while we
  // do): the installed snapshot must be a deep copy, not a live view.
  ASSERT_TRUE(optimizer.Train(ServeWorkload(4, 3, 2006)).ok());
  auto after = server.Plan(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->plan->Fingerprint(), before->plan->Fingerprint());
  EXPECT_EQ(after->cost, before->cost);
  EXPECT_EQ(after->policy_generation, before->policy_generation);
  // Publishing rolls traffic onto the mutated weights.
  ASSERT_TRUE(server.PublishPolicy().ok());
  EXPECT_EQ(server.Plan(q)->policy_generation, 2u);
}

TEST(PlanServerTest, SingleThreadServingIsBitDeterministic) {
  PlanServerConfig config;
  config.enable_cache = false;
  std::vector<Query> workload = ServeWorkload(3, 4, 2007);

  std::vector<std::pair<uint64_t, double>> first_run;
  {
    PlanServer server(&TrainedOptimizer(), config);
    ASSERT_TRUE(server.PublishPolicy().ok());
    for (const Query& q : workload) {
      auto r = server.Plan(q);
      ASSERT_TRUE(r.ok());
      first_run.emplace_back(r->plan->Fingerprint(), r->cost);
    }
  }
  PlanServer server(&TrainedOptimizer(), config);
  ASSERT_TRUE(server.PublishPolicy().ok());
  for (size_t i = 0; i < workload.size(); ++i) {
    auto r = server.Plan(workload[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->plan->Fingerprint(), first_run[i].first)
        << workload[i].name;
    EXPECT_EQ(r->cost, first_run[i].second) << workload[i].name;
  }
}

TEST(PlanServerTest, CalibrationUnlocksRicherTiersForFiniteBudgets) {
  PlanServer server(&TrainedOptimizer(), PlanServerConfig());
  ASSERT_TRUE(server.PublishPolicy().ok());
  std::vector<Query> sample = ServeWorkload(2, 4, 2008);

  // Uncalibrated: a generous finite budget still plans on tier 0.
  auto cheap = server.Plan(sample[0], /*budget_ms=*/1e6);
  ASSERT_TRUE(cheap.ok());
  EXPECT_EQ(cheap->search_mode,
            SearchConfigName(server.effort().tier(0)));

  ASSERT_TRUE(server.CalibrateEffort(sample).ok());
  for (int tier = 0; tier < server.effort().num_tiers(); ++tier) {
    EXPECT_GE(server.effort().EstimateMs(tier), 0.0) << tier;
  }
  // Calibrated: the same budget now affords the richest tier.
  EXPECT_EQ(server.effort().SelectTier(1e6),
            server.effort().num_tiers() - 1);
  auto rich = server.Plan(sample[1], /*budget_ms=*/1e6);
  ASSERT_TRUE(rich.ok());
  EXPECT_EQ(
      rich->search_mode,
      SearchConfigName(server.effort().tier(server.effort().num_tiers() - 1)));
}

TEST(PlanServerTest, PlanAsyncDeliversThroughTheServingPool) {
  PlanServer server(&TrainedOptimizer(), PlanServerConfig());
  ASSERT_TRUE(server.PublishPolicy().ok());
  std::vector<Query> workload = ServeWorkload(3, 3, 2009);

  std::vector<std::future<Result<PlanResponse>>> futures;
  for (const Query& q : workload) {
    futures.push_back(server.PlanAsync(q));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(CountScannedRelations(*r->plan),
              workload[i].num_relations());
  }
  // Shutdown degrades late requests to inline execution — still correct.
  server.Shutdown();
  auto late = server.PlanAsync(workload[0]).get();
  ASSERT_TRUE(late.ok());
  EXPECT_TRUE(late->cache_hit);
}

// The headline concurrency contract, and the suite's TSan workhorse:
// serving threads hammer Plan() with mixed budgets while the background
// update thread keeps retraining and swapping generations. Every
// response must be a valid plan; on the unlimited-budget workload —
// where tier selection is deterministic — all responses for one (query,
// generation) pair, cold or cached, any thread, must be bit-identical.
// Budgeted traffic uses a disjoint query set: its tier (and, on expiry,
// its partial result) legitimately depends on timing, so it shares no
// cache entries with the checked workload.
TEST(PlanServerTest, ConcurrentServingStaysConsistentAcrossPolicySwaps) {
  PlanServer server(&TrainedOptimizer(), PlanServerConfig());
  ASSERT_TRUE(server.PublishPolicy().ok());
  std::vector<Query> workload = ServeWorkload(3, 4, 2010);
  std::vector<Query> budgeted = ServeWorkload(3, 4, 2013);
  std::vector<Query> refine_on = ServeWorkload(2, 3, 2011);

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 24;
  constexpr int kSwaps = 3;

  std::mutex agreement_mu;
  // (query name, generation) -> (plan fingerprint, cost).
  std::map<std::pair<std::string, uint64_t>, std::pair<uint64_t, double>>
      agreement;
  std::vector<std::string> failures;

  auto serve = [&](int thread_id) {
    for (int i = 0; i < kRequestsPerThread; ++i) {
      const bool unlimited = i % 2 == 0;
      const std::vector<Query>& pool = unlimited ? workload : budgeted;
      const Query& q = pool[(thread_id + i) % pool.size()];
      auto r = server.Plan(q, unlimited ? 0.0 : 5.0);
      std::lock_guard<std::mutex> lock(agreement_mu);
      if (!r.ok()) {
        failures.push_back(r.status().ToString());
        continue;
      }
      if (r->plan == nullptr ||
          CountScannedRelations(*r->plan) != q.num_relations() ||
          r->policy_generation < 1) {
        failures.push_back("invalid plan for " + q.name);
        continue;
      }
      if (!unlimited) continue;  // Timing-dependent tier: validity only.
      const auto key = std::make_pair(q.name, r->policy_generation);
      const auto value = std::make_pair(r->plan->Fingerprint(), r->cost);
      auto [it, inserted] = agreement.emplace(key, value);
      if (!inserted && it->second != value) {
        failures.push_back("generation " +
                           std::to_string(r->policy_generation) +
                           " disagreement for " + q.name);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(serve, t);
  TeacherConfig teacher;
  teacher.iterations = 1;
  teacher.learn_passes = 1;
  for (int s = 0; s < kSwaps; ++s) {
    ASSERT_TRUE(server
                    .ApplyUpdate([&](HandsFreeOptimizer* optimizer) {
                      return optimizer->RefineWithTeacher(refine_on, teacher);
                    })
                    .ok());
  }
  for (auto& t : threads) t.join();

  EXPECT_TRUE(failures.empty()) << failures.front() << " (+"
                                << failures.size() - 1 << " more)";
  PlanServerStats stats = server.stats();
  EXPECT_EQ(stats.requests,
            static_cast<uint64_t>(kThreads * kRequestsPerThread));
  EXPECT_GE(stats.policy_publishes, static_cast<uint64_t>(kSwaps + 1));
  EXPECT_GT(stats.cache_hits, 0u);
}

}  // namespace
}  // namespace hfq
