// Tests for the shared plan-generator core (src/optimizer/plan_gen.{h,cc}):
// subproblem counts and budgets of connected-subgraph enumeration, the
// property that the cost-only DP table builds exactly the plan of an
// in-test exhaustive DPsize reference across every topology at <= 10
// relations, and large-join behavior (sparse graphs plan exactly where the
// old 3^n enumerator was infeasible; dense graphs and queries with many
// join-graph components degrade to a clean ResourceExhausted / GEQO
// fallback).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <vector>

#include "optimizer/optimizer.h"
#include "optimizer/plan_gen.h"
#include "plan/relset.h"
#include "tests/test_common.h"
#include "workload/generator.h"

namespace hfq {
namespace {

class PlanGenTest : public ::testing::Test {
 protected:
  Engine& engine() { return testing::SharedEngine(); }
  TraditionalOptimizer& expert() { return engine().expert(); }

  Query TopologyQuery(JoinTopology topology, int n, uint64_t seed) {
    WorkloadGenerator gen(&engine().catalog(), seed);
    auto q = gen.GenerateTopologyQuery(
        topology, n,
        std::string("pg_") + JoinTopologyName(topology) + "_r" +
            std::to_string(n) + "_s" + std::to_string(seed));
    HFQ_CHECK(q.ok());
    return std::move(*q);
  }
};

TEST_F(PlanGenTest, ConnectedSubproblemCountsMatchClosedForms) {
  // Above the exhaustive cut-off (12 relations) only connected subsets are
  // subproblems. Star on n: the n singletons plus every subset containing
  // the hub (2^(n-1) including the hub alone) minus the double-counted hub
  // singleton — 2^12 + 12 at n = 13.
  Query star = TopologyQuery(JoinTopology::kStar, 13, 12);
  PlanGenerator star_gen(&expert(), star);
  auto star_plan = star_gen.FindCheapestJoinPlan();
  ASSERT_TRUE(star_plan.ok()) << star_plan.status().ToString();
  EXPECT_EQ(star_gen.stats().subproblems, 4108);
  EXPECT_EQ((*star_plan)->rels, RelSetAll(13));
  // Path graph on n vertices: n*(n+1)/2 connected subsets (contiguous
  // runs), once the cut-off is below n; every subset at or above it.
  Query chain = TopologyQuery(JoinTopology::kChain, 6, 11);
  PlanGenOptions connected_only;
  connected_only.exhaustive_relations = 5;
  PlanGenerator chain_gen(&expert(), chain, connected_only);
  ASSERT_TRUE(chain_gen.FindCheapestJoinPlan().ok());
  EXPECT_EQ(chain_gen.stats().subproblems, 21);
  PlanGenerator exhaustive_gen(&expert(), chain);
  ASSERT_TRUE(exhaustive_gen.FindCheapestJoinPlan().ok());
  EXPECT_EQ(exhaustive_gen.stats().subproblems, 63);
}

TEST_F(PlanGenTest, ConnectedSubproblemsHonorBudget) {
  // A 13-clique has 2^13 - 1 connected subsets; the growth loop must stop
  // at a budget of 30.
  Query clique = TopologyQuery(JoinTopology::kClique, 13, 13);
  PlanGenOptions options;
  options.max_subproblems = 30;
  PlanGenerator gen(&expert(), clique, options);
  auto plan = gen.FindCheapestJoinPlan();
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
}

// --- Cost-only DP == exhaustive DP (the property test) -----------------

// The reference's orientation rule: both orientations of one split through
// BestJoin, the outer-first one kept on a cost tie.
PlanNodePtr JoinEitherOrientation(TraditionalOptimizer* opt,
                                  const Query& query, const PlanNode& a,
                                  const PlanNode& b) {
  PlanNodePtr ab = opt->BestJoin(query, a.Clone(), b.Clone());
  PlanNodePtr ba = opt->BestJoin(query, b.Clone(), a.Clone());
  return ab->est_cost <= ba->est_cost ? std::move(ab) : std::move(ba);
}

// In-test reference: the pre-plan_gen DPsize semantics over one connected
// component — EVERY submask (internally-disconnected ones included),
// predicate-connected splits first, cross-product splits only for
// clauseless subsets. Returns the cheapest plan per submask.
std::map<RelSet, PlanNodePtr> ReferenceComponentTable(
    TraditionalOptimizer* opt, const Query& query, RelSet comp) {
  std::vector<RelSet> masks;
  for (RelSet s = comp; s != 0; s = (s - 1) & comp) masks.push_back(s);
  // Ascending numeric order: a proper submask is numerically smaller, so
  // children are always planned before parents.
  std::sort(masks.begin(), masks.end());
  std::map<RelSet, PlanNodePtr> table;
  for (RelSet mask : masks) {
    if (RelSetCount(mask) == 1) {
      table[mask] = opt->BestAccessPath(query, std::countr_zero(mask));
      continue;
    }
    PlanNodePtr best;
    auto consider = [&](RelSet s1) {
      const RelSet s2 = mask & ~s1;
      PlanNodePtr cand =
          JoinEitherOrientation(opt, query, *table[s1], *table[s2]);
      if (best == nullptr || cand->est_cost < best->est_cost) {
        best = std::move(cand);
      }
    };
    for (RelSet s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
      const RelSet s2 = mask & ~s1;
      if (s1 > s2) continue;  // Each split once; orientation is explored.
      if (query.JoinPredsBetween(s1, s2).empty()) continue;
      consider(s1);
    }
    if (best == nullptr) {
      for (RelSet s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
        if (s1 > (mask & ~s1)) continue;
        consider(s1);  // Clauseless: cross products.
      }
    }
    HFQ_CHECK(best != nullptr);
    table[mask] = std::move(best);
  }
  return table;
}

// Reference for a whole (possibly disconnected) query: per-component
// DPsize tables, then the exact cross-combination DP over components the
// production enumerator uses.
PlanNodePtr ReferenceCheapestPlan(TraditionalOptimizer* opt,
                                  const Query& query) {
  const int n = query.num_relations();
  const RelSet all = RelSetAll(n);
  // Connected components of the join graph.
  std::vector<RelSet> components;
  RelSet remaining = all;
  while (remaining != 0) {
    RelSet comp = RelSetOf(std::countr_zero(remaining));
    for (;;) {
      RelSet next = comp;
      for (int rel = 0; rel < n; ++rel) {
        if (RelSetHas(comp, rel)) continue;
        if (!query.JoinPredsBetween(comp, RelSetOf(rel)).empty()) {
          next = RelSetUnion(next, RelSetOf(rel));
        }
      }
      if (next == comp) break;
      comp = next;
    }
    components.push_back(comp);
    remaining &= ~comp;
  }
  std::vector<PlanNodePtr> comp_best;
  for (RelSet comp : components) {
    auto table = ReferenceComponentTable(opt, query, comp);
    comp_best.push_back(std::move(table[comp]));
  }
  if (comp_best.size() == 1) return std::move(comp_best[0]);
  // Cross-combine whole components (DP over component masks).
  const size_t k = comp_best.size();
  std::vector<PlanNodePtr> combo(size_t{1} << k);
  for (size_t i = 0; i < k; ++i) combo[size_t{1} << i] = std::move(comp_best[i]);
  for (size_t mask = 1; mask < combo.size(); ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // Singletons seeded above.
    PlanNodePtr best;
    for (size_t s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
      const size_t s2 = mask & ~s1;
      if (s1 > s2) continue;
      PlanNodePtr cand =
          JoinEitherOrientation(opt, query, *combo[s1], *combo[s2]);
      if (best == nullptr || cand->est_cost < best->est_cost) {
        best = std::move(cand);
      }
    }
    combo[mask] = std::move(best);
  }
  return std::move(combo.back());
}

TEST_F(PlanGenTest, CheapestPlanMatchesExhaustiveReference) {
  const JoinTopology topologies[] = {
      JoinTopology::kChain,  JoinTopology::kStar,
      JoinTopology::kClique, JoinTopology::kSnowflake,
      JoinTopology::kCyclic, JoinTopology::kDisconnected,
      JoinTopology::kRandom};
  uint64_t seed = 700;
  for (JoinTopology topology : topologies) {
    for (int n : {5, 10}) {
      Query query = TopologyQuery(topology, n, ++seed);
      const PlanNodePtr reference = ReferenceCheapestPlan(&expert(), query);
      PlanGenerator gen(&expert(), query);
      auto plan = gen.FindCheapestJoinPlan();
      ASSERT_TRUE(plan.ok())
          << JoinTopologyName(topology) << " r" << n << ": "
          << plan.status().ToString();
      // The whole plan, not just its cost: same splits, orientations,
      // operators, access paths and annotations.
      EXPECT_EQ((*plan)->est_cost, reference->est_cost)
          << JoinTopologyName(topology) << " r" << n;
      EXPECT_EQ((*plan)->ToString(query), reference->ToString(query))
          << JoinTopologyName(topology) << " r" << n;
      EXPECT_EQ((*plan)->rels, RelSetAll(n));
    }
  }
}

// --- Large-join scaling ------------------------------------------------

TEST_F(PlanGenTest, SixteenRelationChainPlansExactly) {
  // A 16-relation chain induces only 136 connected subproblems, so the
  // generator plans it exactly — the historic enumerator's Theta(3^n)
  // subset walk was infeasible here.
  Query query = TopologyQuery(JoinTopology::kChain, 16, 900);
  PlanGenerator gen(&expert(), query, PlanGenOptions());
  auto plan = gen.FindCheapestJoinPlan();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->rels, RelSetAll(16));
  EXPECT_EQ(gen.stats().subproblems, 136);
}

TEST_F(PlanGenTest, DenseLargeJoinDegradesToResourceExhausted) {
  // A 16-clique induces 2^16 - 17 connected subproblems — over the
  // default budget. The generator reports ResourceExhausted...
  Query query = TopologyQuery(JoinTopology::kClique, 16, 901);
  PlanGenerator gen(&expert(), query, PlanGenOptions());
  auto plan = gen.FindCheapestJoinPlan();
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
  // ...and Optimize (threshold raised to admit it) degrades to GEQO
  // instead of failing the query.
  OptimizerOptions options;
  options.geqo_threshold = 32;
  TraditionalOptimizer optimizer(&engine().catalog(),
                                 &engine().cost_model(), options);
  auto fallback = optimizer.Optimize(query);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ((*fallback)->rels, RelSetAll(16));
}

TEST_F(PlanGenTest, ManyComponentsFallBackToGeqo) {
  // 21 aliases of one table and no join predicate: 21 join-graph
  // components, so 2^21 - 1 cross-combination states — over the
  // subproblem budget. With the threshold admitting DP, Optimize must fall
  // back to GEQO rather than abort.
  Query query;
  query.name = "pg_kind_type_x21";
  for (int i = 0; i < 21; ++i) {
    query.relations.push_back({"kind_type", "k" + std::to_string(i)});
  }
  ASSERT_TRUE(query.Validate(engine().catalog()).ok());
  PlanGenerator gen(&expert(), query);
  auto dp = gen.FindCheapestJoinPlan();
  ASSERT_FALSE(dp.ok());
  EXPECT_EQ(dp.status().code(), StatusCode::kResourceExhausted);
  OptimizerOptions options;
  options.geqo_threshold = 32;
  TraditionalOptimizer optimizer(&engine().catalog(),
                                 &engine().cost_model(), options);
  auto plan = optimizer.Optimize(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->rels, RelSetAll(21));
}

}  // namespace
}  // namespace hfq
