// Tests for src/optimizer: DP optimality against exhaustive left-deep
// enumeration, GEQO validity, access-path selection, and join-tree
// physicalization.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "optimizer/optimizer.h"
#include "tests/test_common.h"
#include "workload/generator.h"

namespace hfq {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  Engine& engine() { return testing::SharedEngine(); }

  Query MakeQuery(int n, uint64_t seed) {
    WorkloadGenerator gen(&engine().catalog(), seed);
    auto q = gen.GenerateQuery(n, "opt_q" + std::to_string(seed));
    HFQ_CHECK(q.ok());
    return std::move(*q);
  }

  // All permutations of {0..n-1} physicalized as left-deep trees; returns
  // the best cost among them (reference for DP optimality over the
  // left-deep subspace).
  double BestLeftDeepCost(const Query& q) {
    std::vector<int> perm(static_cast<size_t>(q.num_relations()));
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
    double best = 1e300;
    do {
      auto tree = LeftDeepTree(perm);
      auto plan = engine().expert().PhysicalizeJoinTree(q, *tree);
      if (plan.ok()) best = std::min(best, (*plan)->est_cost);
    } while (std::next_permutation(perm.begin(), perm.end()));
    return best;
  }
};

TEST_F(OptimizerTest, PlansCoverAllRelationsAndAnnotate) {
  std::vector<Query> queries;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    queries.push_back(MakeQuery(4 + static_cast<int>(seed % 3), seed));
  }
  queries.push_back(MakeQuery(7, 40));
  for (const Query& q : queries) {
    auto plan = engine().expert().Optimize(q);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const PlanNode* joins = (*plan)->IsAggregate() ? (*plan)->child(0)
                                                   : plan->get();
    EXPECT_EQ(joins->rels, RelSetAll(q.num_relations()));
    EXPECT_GT((*plan)->est_cost, 0.0);
  }
}

TEST_F(OptimizerTest, DpNeverWorseThanBestLeftDeep) {
  // DP explores bushy + both orientations, so it must match or beat the
  // exhaustive left-deep optimum.
  for (uint64_t seed = 10; seed < 14; ++seed) {
    Query q = MakeQuery(4, seed);
    q.aggregates.clear();
    q.group_by.clear();  // Compare pure join plans.
    auto dp = engine().expert().Optimize(q);
    ASSERT_TRUE(dp.ok());
    double best_left_deep = BestLeftDeepCost(q);
    EXPECT_LE((*dp)->est_cost, best_left_deep * 1.0001)
        << "DP produced a worse plan than exhaustive left-deep search on "
        << q.ToSql();
  }
}

TEST_F(OptimizerTest, SingleRelationQueryUsesAccessPathOnly) {
  Query q = MakeQuery(1, 77);
  auto plan = engine().expert().Optimize(q);
  ASSERT_TRUE(plan.ok());
  const PlanNode* node = plan->get();
  if (node->IsAggregate()) node = node->child(0);
  EXPECT_TRUE(node->IsScan());
}

TEST_F(OptimizerTest, AccessPathPrefersIndexForSelectiveEq) {
  Query q;
  q.name = "opt_ap";
  q.relations = {RelationRef{"cast_info", "ci"}};
  // A tail value of person_role_id is highly selective (the head values
  // are MCVs with large estimated match counts); hash+btree indexes exist.
  q.selections.push_back(SelectionPredicate{
      ColumnRef{0, "person_role_id"}, CmpOp::kEq, Value::Int(433)});
  PlanNodePtr scan = engine().expert().BestAccessPath(q, 0);
  EXPECT_EQ(scan->op, PhysicalOp::kIndexScan);
}

TEST_F(OptimizerTest, AccessPathUsesSeqScanWithoutPredicates) {
  Query q;
  q.name = "opt_ap2";
  q.relations = {RelationRef{"title", "t"}};
  PlanNodePtr scan = engine().expert().BestAccessPath(q, 0);
  EXPECT_EQ(scan->op, PhysicalOp::kSeqScan);
}

TEST_F(OptimizerTest, BestJoinRespectsDisabledOperators) {
  Query q = MakeQuery(2, 21);
  q.aggregates.clear();
  q.group_by.clear();
  OptimizerOptions options;
  options.enable_hashjoin = false;
  options.enable_mergejoin = false;
  options.enable_indexnestloop = false;
  TraditionalOptimizer nlj_only(&engine().catalog(), &engine().cost_model(),
                                options);
  auto plan = nlj_only.Optimize(q);
  ASSERT_TRUE(plan.ok());
  std::vector<const PlanNode*> nodes;
  (*plan)->CollectNodes(&nodes);
  for (const PlanNode* node : nodes) {
    if (node->IsJoin()) {
      EXPECT_EQ(node->op, PhysicalOp::kNestedLoopJoin);
    }
  }
}

TEST_F(OptimizerTest, PhysicalizePreservesShapeAndOrientation) {
  Query q = MakeQuery(4, 31);
  q.aggregates.clear();
  q.group_by.clear();
  // A specific bushy tree: ((r2 x r0) x (r1 x r3)).
  auto tree = JoinTreeNode::Join(
      JoinTreeNode::Join(JoinTreeNode::Leaf(2), JoinTreeNode::Leaf(0)),
      JoinTreeNode::Join(JoinTreeNode::Leaf(1), JoinTreeNode::Leaf(3)));
  auto plan = engine().expert().PhysicalizeJoinTree(q, *tree);
  ASSERT_TRUE(plan.ok());
  const PlanNode* root = plan->get();
  ASSERT_TRUE(root->IsJoin());
  EXPECT_EQ(root->child(0)->rels, RelSetOf(2) | RelSetOf(0));
  EXPECT_EQ(root->child(1)->rels, RelSetOf(1) | RelSetOf(3));
  // Left child's outer is r2 (orientation preserved).
  EXPECT_EQ(root->child(0)->child(0)->rel_idx, 2);
}

TEST_F(OptimizerTest, GeqoHandlesLargeQueries) {
  Query q = MakeQuery(14, 50);
  q.aggregates.clear();
  q.group_by.clear();
  OptimizerOptions options;
  options.geqo_threshold = 8;  // Force the genetic path.
  TraditionalOptimizer opt(&engine().catalog(), &engine().cost_model(),
                           options);
  auto plan = opt.Optimize(q);
  ASSERT_TRUE(plan.ok());
  const PlanNode* joins = (*plan)->IsAggregate() ? (*plan)->child(0)
                                                 : plan->get();
  EXPECT_EQ(joins->rels, RelSetAll(14));
}

TEST_F(OptimizerTest, GeqoDeterministicPerSeed) {
  Query q = MakeQuery(13, 51);
  q.aggregates.clear();
  q.group_by.clear();
  OptimizerOptions options;
  options.geqo_threshold = 8;
  TraditionalOptimizer a(&engine().catalog(), &engine().cost_model(),
                         options);
  TraditionalOptimizer b(&engine().catalog(), &engine().cost_model(),
                         options);
  auto pa = a.Optimize(q);
  auto pb = b.Optimize(q);
  ASSERT_TRUE(pa.ok() && pb.ok());
  EXPECT_EQ((*pa)->Fingerprint(), (*pb)->Fingerprint());
}

// GEQO decodes every permutation with access paths and rows it looked up
// once per enumeration; each plan must be exactly what the per-call path
// (BestAccessPath and BestJoin, through PhysicalizeJoinTree) builds for
// the same join tree.
TEST_F(OptimizerTest, GeqoPlanIsThePhysicalizationOfItsJoinTree) {
  OptimizerOptions options;
  options.geqo_threshold = 1;  // Genetic search at every size.
  TraditionalOptimizer geqo(&engine().catalog(), &engine().cost_model(),
                            options);
  WorkloadGenerator gen(&engine().catalog(), 4242);
  for (JoinTopology topology : {JoinTopology::kChain, JoinTopology::kStar,
                                JoinTopology::kClique, JoinTopology::kCyclic}) {
    for (int n : {6, 11, 16}) {
      auto q = gen.GenerateTopologyQuery(
          topology, n,
          std::string("geqo_pin_") + JoinTopologyName(topology) +
              std::to_string(n));
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      auto plan = geqo.Optimize(*q);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      std::unique_ptr<JoinTreeNode> tree = JoinTreeOf(**plan);
      auto rebuilt = geqo.PhysicalizeJoinTree(*q, *tree);
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
      EXPECT_EQ((*plan)->ToString(*q), (*rebuilt)->ToString(*q)) << q->name;
      EXPECT_EQ((*plan)->est_cost, (*rebuilt)->est_cost) << q->name;
    }
  }
}

TEST_F(OptimizerTest, GeqoNotMuchWorseThanDp) {
  // On a 9-relation query both paths should land within a reasonable
  // factor (GEQO is heuristic, but the pool should find decent orders).
  Query q = MakeQuery(9, 52);
  q.aggregates.clear();
  q.group_by.clear();
  OptimizerOptions dp_opts;
  TraditionalOptimizer dp(&engine().catalog(), &engine().cost_model(),
                          dp_opts);
  OptimizerOptions geqo_opts;
  geqo_opts.geqo_threshold = 4;
  TraditionalOptimizer geqo(&engine().catalog(), &engine().cost_model(),
                            geqo_opts);
  auto dplan = dp.Optimize(q);
  auto gplan = geqo.Optimize(q);
  ASSERT_TRUE(dplan.ok() && gplan.ok());
  EXPECT_LE((*dplan)->est_cost, (*gplan)->est_cost * 1.0001);
  EXPECT_LT((*gplan)->est_cost, (*dplan)->est_cost * 50.0);
}

TEST_F(OptimizerTest, AggregateChoiceAnnotated) {
  Query q = MakeQuery(3, 60);
  q.group_by.clear();
  AggSpec agg;
  agg.func = AggFunc::kCount;
  q.aggregates = {agg};
  auto plan = engine().expert().Optimize(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE((*plan)->IsAggregate());
  EXPECT_GT((*plan)->est_cost, (*plan)->child(0)->est_cost);
}

TEST_F(OptimizerTest, DisconnectedQueryStillPlans) {
  Query q;
  q.name = "opt_disc";
  q.relations = {RelationRef{"title", "t"}, RelationRef{"name", "n"}};
  // No join predicate: forced cross product.
  auto plan = engine().expert().Optimize(q);
  ASSERT_TRUE(plan.ok());
  const PlanNode* joins = (*plan)->IsAggregate() ? (*plan)->child(0)
                                                 : plan->get();
  EXPECT_EQ(joins->rels, RelSetAll(2));
}

}  // namespace
}  // namespace hfq
