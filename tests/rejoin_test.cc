// Tests for ReJOIN: featurization properties, the join-order MDP's
// transition/mask semantics (the pipeline env with only its join-order
// stage), and short-horizon training improvement.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/full_env.h"
#include "core/pg_trainer.h"
#include "core/reward.h"
#include "search/plan_search.h"
#include "tests/test_common.h"
#include "workload/generator.h"

namespace hfq {
namespace {

FullEnvConfig JoinOrderOnly() {
  FullEnvConfig config;
  config.stages = PipelineStages::JoinOrderOnly();
  return config;
}

class RejoinTest : public ::testing::Test {
 protected:
  RejoinTest()
      : featurizer_(kN, &testing::SharedEngine().estimator()),
        reward_(1e5),
        env_(&featurizer_, &testing::SharedEngine().expert(),
             JoinOrderOnly()) {}

  Query MakeQuery(int n, uint64_t seed, const std::string& name) {
    WorkloadGenerator gen(&testing::SharedEngine().catalog(), seed);
    auto q = gen.GenerateQuery(n, name);
    HFQ_CHECK(q.ok());
    return std::move(*q);
  }

  /// One greedy episode of the agent's policy on `query`; its reward.
  double GreedyReward(PolicyGradientAgent& agent, const Query& query) {
    env_.SetQuery(&query);
    env_.Reset();
    while (!env_.Done()) {
      std::vector<double> state = env_.StateVector();
      std::vector<bool> mask = env_.ActionMask();
      env_.Step(agent.GreedyAction(state, mask));
    }
    return reward_.Score(query, *env_.FinalPlan()).reward;
  }

  static constexpr int kN = 8;
  RejoinFeaturizer featurizer_;
  ReciprocalCostReward reward_;  // The paper's 1/M(t).
  FullPipelineEnv env_;
};

TEST_F(RejoinTest, FeatureDimAndStaticBlocks) {
  EXPECT_EQ(featurizer_.FeatureDim(), 2 * kN * kN + 3 * kN);
  Query q = MakeQuery(4, 1, "feat1");
  env_.SetQuery(&q);
  env_.Reset();
  std::vector<double> f = env_.StateVector();
  // The featurization, then the pipeline's stage and decision blocks.
  ASSERT_EQ(static_cast<int>(f.size()), featurizer_.FeatureDim() + 4 + 2 * kN);
  ASSERT_EQ(static_cast<int>(f.size()), env_.state_dim());
  // Initial state: each leaf subtree s contains only relation s at depth 0
  // -> tree block is the identity scaled by 1.
  for (int s = 0; s < 4; ++s) {
    for (int r = 0; r < kN; ++r) {
      double expected = (s == r) ? 1.0 : 0.0;
      EXPECT_DOUBLE_EQ(f[static_cast<size_t>(s * kN + r)], expected);
    }
  }
  // Adjacency block symmetric, matches join count * 2.
  double adj_sum = 0.0;
  for (int i = 0; i < kN * kN; ++i) {
    adj_sum += f[static_cast<size_t>(kN * kN + i)];
  }
  EXPECT_DOUBLE_EQ(adj_sum, 2.0 * static_cast<double>(q.joins.size()));
}

TEST_F(RejoinTest, DepthWeightedTreeEncoding) {
  Query q = MakeQuery(4, 2, "feat2");
  env_.SetQuery(&q);
  env_.Reset();
  // Join subtrees 0 and 1 (if valid, else first valid pair).
  std::vector<bool> mask = env_.ActionMask();
  int action = -1;
  for (int a = 0; a < env_.action_dim(); ++a) {
    if (mask[static_cast<size_t>(a)]) {
      action = a;
      break;
    }
  }
  ASSERT_GE(action, 0);
  const int x = action / kN, y = action % kN;
  env_.Step(action);
  std::vector<double> f = env_.StateVector();
  // The merged tree sits at slot min(x, y); both relations are at depth 1
  // -> encoded as 1/2.
  int slot = std::min(x, y);
  int count_half = 0;
  for (int r = 0; r < kN; ++r) {
    if (f[static_cast<size_t>(slot * kN + r)] == 0.5) ++count_half;
  }
  EXPECT_EQ(count_half, 2);
}

TEST_F(RejoinTest, MaskAllowsOnlyConnectedPairs) {
  Query q = MakeQuery(5, 3, "mask1");
  env_.SetQuery(&q);
  env_.Reset();
  // Before the first join, slot s holds the leaf of relation s.
  std::vector<bool> mask = env_.ActionMask();
  for (int a = 0; a < env_.action_dim(); ++a) {
    if (!mask[static_cast<size_t>(a)]) continue;
    const int x = a / kN, y = a % kN;
    ASSERT_LT(x, q.num_relations());
    ASSERT_LT(y, q.num_relations());
    EXPECT_NE(x, y);
    EXPECT_FALSE(q.JoinPredsBetween(RelSetOf(x), RelSetOf(y)).empty())
        << "masked-in action joins disconnected subtrees";
  }
}

TEST_F(RejoinTest, CrossProductsAllowedWhenConfigured) {
  FullEnvConfig config = JoinOrderOnly();
  config.allow_cross_products = true;
  FullPipelineEnv env(&featurizer_, &testing::SharedEngine().expert(),
                      config);
  Query q = MakeQuery(4, 4, "mask2");
  env.SetQuery(&q);
  env.Reset();
  std::vector<bool> mask = env.ActionMask();
  int valid = 0;
  for (int a = 0; a < env.action_dim(); ++a) {
    if (mask[static_cast<size_t>(a)]) ++valid;
  }
  // Every ordered pair of the 4 subtrees: 4*3 = 12.
  EXPECT_EQ(valid, 12);
}

TEST_F(RejoinTest, EpisodeBuildsCompleteTree) {
  Query q = MakeQuery(6, 5, "ep1");
  env_.SetQuery(&q);
  env_.Reset();
  Rng rng(1);
  int steps = 0;
  while (!env_.Done()) {
    std::vector<bool> mask = env_.ActionMask();
    std::vector<int> valid;
    for (int a = 0; a < env_.action_dim(); ++a) {
      if (mask[static_cast<size_t>(a)]) valid.push_back(a);
    }
    ASSERT_FALSE(valid.empty());
    env_.Step(rng.Choice(valid));
    ++steps;
  }
  EXPECT_EQ(steps, 5);  // n-1 joins.
  EXPECT_GT(reward_.Score(q, *env_.FinalPlan()).reward, 0.0);
  std::unique_ptr<JoinTreeNode> tree = JoinTreeOf(*env_.FinalPlan());
  EXPECT_EQ(tree->rels, RelSetAll(6));
  EXPECT_EQ(tree->NumJoins(), 5);
}

TEST_F(RejoinTest, TrainerImprovesOverRandomBaseline) {
  // Short ReJOIN training on two fixed queries must beat the mean random-
  // policy reward on those queries (sanity check of the learning loop; the
  // full convergence claim lives in the Fig 3a bench).
  std::vector<Query> workload;
  workload.push_back(MakeQuery(5, 6, "train_a"));
  workload.push_back(MakeQuery(6, 7, "train_b"));

  // Random baseline.
  Rng rng(3);
  double random_total = 0.0;
  int random_episodes = 0;
  for (int e = 0; e < 40; ++e) {
    const Query& q = workload[static_cast<size_t>(e) % workload.size()];
    env_.SetQuery(&q);
    env_.Reset();
    while (!env_.Done()) {
      std::vector<bool> mask = env_.ActionMask();
      std::vector<int> valid;
      for (int a = 0; a < env_.action_dim(); ++a) {
        if (mask[static_cast<size_t>(a)]) valid.push_back(a);
      }
      env_.Step(rng.Choice(valid));
    }
    random_total += reward_.Score(q, *env_.FinalPlan()).reward;
    ++random_episodes;
  }
  double random_mean = random_total / random_episodes;

  PolicyGradientConfig pg;
  pg.hidden_dims = {32, 32};
  pg.policy_lr = 2e-3;
  PolicyGradientTrainer trainer(&env_, &reward_, pg,
                                /*episodes_per_update=*/8,
                                /*num_rollout_workers=*/1, /*seed=*/17);
  trainer.Train(workload, 400);

  double trained_total = 0.0;
  for (const Query& q : workload) {
    trained_total += GreedyReward(trainer.agent(), q);
  }
  double trained_mean = trained_total / static_cast<double>(workload.size());
  EXPECT_GT(trained_mean, random_mean);
}

TEST_F(RejoinTest, TrainFlushesTrailingEpisodes) {
  // Episodes short of episodes_per_update used to be left in the pending
  // buffer at the end of Train, leaking (with stale old_prob values) into a
  // later update. Train must apply the remainder before returning.
  Query q = MakeQuery(4, 10, "flush1");
  PolicyGradientConfig pg;
  pg.hidden_dims = {16};
  PolicyGradientTrainer trainer(&env_, &reward_, pg,
                                /*episodes_per_update=*/8,
                                /*num_rollout_workers=*/1, /*seed=*/21);
  auto weights = [&trainer] {
    std::ostringstream out;
    HFQ_CHECK(trainer.agent().Save(out).ok());
    return out.str();
  };
  const std::string initial = weights();
  trainer.Train({q}, 3);  // 3 < 8: only the trailing batch updates.
  const std::string after_partial = weights();
  EXPECT_NE(after_partial, initial);
  trainer.Train({q}, 11);  // 8 trigger an update, 3 trail again.
  EXPECT_NE(weights(), after_partial);
}

TEST_F(RejoinTest, PlanIsDeterministicAndTimed) {
  Query q = MakeQuery(6, 8, "plan1");
  PolicyGradientConfig pg;
  pg.hidden_dims = {16};
  PolicyGradientTrainer trainer(&env_, &reward_, pg,
                                /*episodes_per_update=*/8,
                                /*num_rollout_workers=*/1, /*seed=*/19);
  trainer.Train({q}, 40);
  AgentPolicy policy(&trainer.agent());
  MlpWorkspace ws;
  SearchContext ctx{&policy, /*rng=*/nullptr, &ws};
  std::unique_ptr<PlanSearch> greedy = MakePlanSearch(SearchConfig());
  env_.SetQuery(&q);
  auto first = greedy->Search(&env_, ctx);
  ASSERT_TRUE(first.ok());
  const std::string plan1 = env_.FinalPlan()->ToString(q);
  auto second = greedy->Search(&env_, ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(env_.FinalPlan()->ToString(q), plan1);
  EXPECT_GE(first->planning_ms, 0.0);
  EXPECT_GE(second->planning_ms, 0.0);
  EXPECT_EQ(env_.FinalPlan()->rels, RelSetAll(6));
}

TEST_F(RejoinTest, SingleRelationEpisodeIsTrivial) {
  Query q = MakeQuery(1, 9, "single");
  env_.SetQuery(&q);
  env_.Reset();
  EXPECT_TRUE(env_.Done());
  EXPECT_EQ(env_.FinalPlan()->rels, RelSetOf(0));
}

}  // namespace
}  // namespace hfq
