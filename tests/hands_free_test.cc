// Tests for the HandsFreeOptimizer facade (src/core/hands_free.{h,cc}):
// every TrainingStrategy trains on a tiny workload and then produces valid
// plans, plus the save/load round-trip and the error paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/hands_free.h"
#include "nn/mlp.h"
#include "plan/physical_plan.h"
#include "tests/test_common.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace hfq {
namespace {

// Counts distinct scanned relations in a plan (leaf coverage check).
int CountScannedRelations(const PlanNode& node) {
  if (node.children.empty()) return 1;
  int total = 0;
  for (const auto& child : node.children) {
    total += CountScannedRelations(*child);
  }
  return total;
}

// A facade configuration small enough that training a strategy takes
// well under a second on the shared 0.05-scale engine.
HandsFreeConfig TinyConfig(TrainingStrategy strategy) {
  HandsFreeConfig config;
  config.strategy = strategy;
  config.max_relations = 5;
  config.training_episodes = 8;
  config.seed = 17;
  config.lfd.pretrain_steps = 40;
  config.lfd.finetune_steps_per_episode = 1;
  config.lfd.predictor.hidden_dims = {32};
  config.bootstrap.pg.hidden_dims = {32};
  config.bootstrap.episodes_per_update = 4;
  config.incremental_pg.hidden_dims = {32};
  return config;
}

// Per-process path so concurrent runs of this binary (e.g. a plain and an
// ASan build in parallel) never race on the same file in TempDir().
std::string ModelPath(const std::string& tag) {
  return ::testing::TempDir() + "hfq_model_" + tag + "_" +
         std::to_string(getpid()) + ".txt";
}

std::vector<Query> TinyWorkload(int count, int num_relations, uint64_t seed) {
  WorkloadGenerator gen(&testing::SharedEngine().catalog(), seed);
  std::vector<Query> workload;
  for (int i = 0; i < count; ++i) {
    auto q = gen.GenerateQuery(num_relations, "hf_s" + std::to_string(seed) +
                                                  "_q" + std::to_string(i));
    HFQ_CHECK(q.ok());
    workload.push_back(std::move(*q));
  }
  return workload;
}

class HandsFreeStrategyTest
    : public ::testing::TestWithParam<TrainingStrategy> {};

TEST_P(HandsFreeStrategyTest, TrainsAndProducesValidPlans) {
  HandsFreeOptimizer optimizer(&testing::SharedEngine(),
                               TinyConfig(GetParam()));
  std::vector<Query> workload = TinyWorkload(4, 3, 900);
  ASSERT_TRUE(optimizer.Train(workload).ok());

  for (const Query& q : workload) {
    double planning_ms = -1.0;
    auto plan = optimizer.Optimize(q, &planning_ms);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_NE(*plan, nullptr);
    EXPECT_EQ(CountScannedRelations(**plan), q.num_relations());
    EXPECT_GT((*plan)->est_cost, 0.0);
    EXPECT_GE(planning_ms, 0.0);
  }
}

TEST_P(HandsFreeStrategyTest, CompareReportsBothSides) {
  HandsFreeOptimizer optimizer(&testing::SharedEngine(),
                               TinyConfig(GetParam()));
  std::vector<Query> workload = TinyWorkload(3, 3, 901);
  ASSERT_TRUE(optimizer.Train(workload).ok());
  auto cmp = optimizer.Compare(workload[0]);
  ASSERT_TRUE(cmp.ok()) << cmp.status().ToString();
  EXPECT_GT(cmp->learned_latency_ms, 0.0);
  EXPECT_GT(cmp->expert_latency_ms, 0.0);
  EXPECT_GT(cmp->learned_cost, 0.0);
  EXPECT_GT(cmp->expert_cost, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, HandsFreeStrategyTest,
    ::testing::Values(TrainingStrategy::kLearningFromDemonstration,
                      TrainingStrategy::kCostModelBootstrapping,
                      TrainingStrategy::kIncrementalHybrid),
    [](const ::testing::TestParamInfo<TrainingStrategy>& info) {
      switch (info.param) {
        case TrainingStrategy::kLearningFromDemonstration:
          return std::string("Lfd");
        case TrainingStrategy::kCostModelBootstrapping:
          return std::string("Bootstrap");
        case TrainingStrategy::kIncrementalHybrid:
          return std::string("Incremental");
      }
      return std::string("Unknown");
    });

TEST(HandsFreeTest, StrategyNamesAreDistinct) {
  EXPECT_STREQ(
      TrainingStrategyName(TrainingStrategy::kLearningFromDemonstration),
      "learning-from-demonstration");
  EXPECT_STREQ(TrainingStrategyName(TrainingStrategy::kCostModelBootstrapping),
               "cost-model-bootstrapping");
  EXPECT_STREQ(TrainingStrategyName(TrainingStrategy::kIncrementalHybrid),
               "incremental-hybrid");
}

TEST(HandsFreeTest, OptimizeBeforeTrainFails) {
  HandsFreeOptimizer optimizer(
      &testing::SharedEngine(),
      TinyConfig(TrainingStrategy::kLearningFromDemonstration));
  auto plan = optimizer.Optimize(TinyWorkload(1, 3, 902)[0]);
  EXPECT_FALSE(plan.ok());
}

TEST(HandsFreeTest, TrainOnEmptyWorkloadFails) {
  HandsFreeOptimizer optimizer(
      &testing::SharedEngine(),
      TinyConfig(TrainingStrategy::kLearningFromDemonstration));
  EXPECT_FALSE(optimizer.Train({}).ok());
}

// A budget the strategy cannot run is an InvalidArgument naming the
// minimum, not an abort inside the trainer: bootstrapping calibrates
// Phase 2 from Phase 1 (half the budget), the curriculum needs an episode.
TEST(HandsFreeTest, TrainRejectsBudgetsTheStrategyCannotRun) {
  struct Case {
    TrainingStrategy strategy;
    std::vector<int> too_small;
    int minimum;
  };
  std::vector<Query> workload = TinyWorkload(2, 3, 912);
  for (const Case& c :
       {Case{TrainingStrategy::kCostModelBootstrapping, {-1, 0, 1}, 2},
        Case{TrainingStrategy::kIncrementalHybrid, {-1, 0}, 1}}) {
    HandsFreeConfig config = TinyConfig(c.strategy);
    for (int budget : c.too_small) {
      config.training_episodes = budget;
      HandsFreeOptimizer optimizer(&testing::SharedEngine(), config);
      Status status = optimizer.Train(workload);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << TrainingStrategyName(c.strategy) << " " << budget;
      EXPECT_NE(status.message().find(">= " + std::to_string(c.minimum)),
                std::string::npos)
          << status.ToString();
      EXPECT_FALSE(optimizer.Optimize(workload[0]).ok());
    }
    config.training_episodes = c.minimum;
    HandsFreeOptimizer optimizer(&testing::SharedEngine(), config);
    Status status = optimizer.Train(workload);
    ASSERT_TRUE(status.ok()) << TrainingStrategyName(c.strategy) << " "
                             << status.ToString();
    EXPECT_TRUE(optimizer.Optimize(workload[0]).ok());
  }
}

// The curriculum names its generated queries by phase, not by seed, so
// incremental facades with different seeds give different queries the
// same names; over one engine, each still trains and plans.
TEST(HandsFreeTest, IncrementalFacadesWithDifferentSeedsShareAnEngine) {
  std::vector<Query> workload = TinyWorkload(2, 3, 913);
  for (uint64_t seed : {101u, 202u}) {
    HandsFreeConfig config = TinyConfig(TrainingStrategy::kIncrementalHybrid);
    config.seed = seed;
    HandsFreeOptimizer optimizer(&testing::SharedEngine(), config);
    Status status = optimizer.Train(workload);
    ASSERT_TRUE(status.ok()) << seed << " " << status.ToString();
    for (const Query& q : workload) {
      auto plan = optimizer.Optimize(q);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_EQ(CountScannedRelations(**plan), q.num_relations());
    }
  }
}

TEST(HandsFreeTest, QueryLargerThanMaxRelationsIsRejected) {
  HandsFreeOptimizer optimizer(
      &testing::SharedEngine(),
      TinyConfig(TrainingStrategy::kCostModelBootstrapping));
  ASSERT_TRUE(optimizer.Train(TinyWorkload(3, 3, 903)).ok());
  auto plan = optimizer.Optimize(TinyWorkload(1, 6, 904)[0]);
  ASSERT_FALSE(plan.ok());
  // The capacity error names the query, its size, and the configured
  // capacity — actionable, not just "rejected".
  const std::string msg = plan.status().ToString();
  EXPECT_NE(msg.find("hf_s904_q0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("6 relations"), std::string::npos) << msg;
  EXPECT_NE(msg.find("max_relations=5"), std::string::npos) << msg;
}

TEST(HandsFreeTest, TrainRejectsOversizedQueryInsteadOfCrashing) {
  // Before capacity validation moved to the facade boundary, an oversized
  // training query only surfaced as a featurizer HFQ_CHECK abort inside a
  // rollout worker. It must be a clean InvalidArgument.
  HandsFreeOptimizer optimizer(
      &testing::SharedEngine(),
      TinyConfig(TrainingStrategy::kCostModelBootstrapping));
  std::vector<Query> workload = TinyWorkload(2, 3, 906);
  workload.push_back(TinyWorkload(1, 6, 907)[0]);
  Status status = optimizer.Train(workload);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("max_relations=5"), std::string::npos)
      << status.ToString();
}

// A published policy generation carries the live weights bit for bit. The
// live weights are read back through SaveModel, whose 17 significant
// digits round-trip every double exactly.
TEST_P(HandsFreeStrategyTest, SnapshotCopiesTheLiveWeightsBitForBit) {
  const std::string path = ModelPath(
      std::string("snapshot_") +
      std::to_string(static_cast<int>(GetParam())));
  HandsFreeOptimizer optimizer(&testing::SharedEngine(),
                               TinyConfig(GetParam()));
  ASSERT_TRUE(optimizer.Train(TinyWorkload(4, 3, 915)).ok());
  auto snapshot = optimizer.SnapshotPolicy();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(optimizer.SaveModel(path).ok());

  std::vector<Mlp*> copied;
  if ((*snapshot)->predictor != nullptr) {
    copied = {&(*snapshot)->predictor->net()};
  } else {
    ASSERT_NE((*snapshot)->agent, nullptr);
    copied = {&(*snapshot)->agent->policy_net(),
              &(*snapshot)->agent->value_net()};
  }
  std::ifstream in(path);
  std::string magic, strategy;
  int max_relations = 0;
  in >> magic >> strategy >> max_relations;
  for (Mlp* net : copied) {
    Result<Mlp> live = Mlp::Load(in);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    std::vector<Matrix*> want = live->Params();
    std::vector<Matrix*> got = net->Params();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i]->SameShape(*want[i])) << i;
      EXPECT_EQ(std::memcmp(got[i]->data(), want[i]->data(),
                            static_cast<size_t>(got[i]->size()) *
                                sizeof(double)),
                0)
          << "parameter matrix " << i;
    }
  }
  std::remove(path.c_str());
}

// LoadModel takes any networks whose input and output fit, so a model file
// may hold a tanh policy and a value net whose hidden layers differ from
// the policy's. Publishing such a model keeps each network's own
// architecture and activation, and the snapshot answers exactly as the
// live policy does.
TEST_P(HandsFreeStrategyTest, SnapshotOfALoadedModelKeepsEachArchitecture) {
  const std::string path = ModelPath(
      std::string("arch_") + std::to_string(static_cast<int>(GetParam())));
  const HandsFreeConfig config = TinyConfig(GetParam());
  HandsFreeOptimizer optimizer(&testing::SharedEngine(), config);
  const int state_dim = optimizer.env().state_dim();
  const int action_dim = optimizer.env().action_dim();
  const bool predictor =
      GetParam() == TrainingStrategy::kLearningFromDemonstration;

  Rng rng(23);
  MlpConfig policy_config;
  policy_config.input_dim = state_dim;
  policy_config.output_dim = action_dim;
  policy_config.hidden_dims = {24};
  policy_config.activation = Activation::kTanh;
  MlpConfig value_config;
  value_config.input_dim = state_dim;
  value_config.output_dim = 1;
  value_config.hidden_dims = {16, 8};
  value_config.activation = Activation::kSigmoid;
  std::vector<Mlp> saved = {Mlp(policy_config, &rng)};
  if (!predictor) saved.push_back(Mlp(value_config, &rng));
  {
    std::ofstream out(path);
    out << "hfq-handsfree-v1 " << TrainingStrategyName(GetParam()) << " "
        << config.max_relations << "\n";
    for (Mlp& net : saved) ASSERT_TRUE(net.Save(out).ok());
  }
  ASSERT_TRUE(optimizer.LoadModel(path).ok());
  std::remove(path.c_str());
  auto snapshot = optimizer.SnapshotPolicy();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  std::vector<Mlp*> copied;
  if (predictor) {
    copied = {&(*snapshot)->predictor->net()};
  } else {
    copied = {&(*snapshot)->agent->policy_net(),
              &(*snapshot)->agent->value_net()};
  }
  ASSERT_EQ(copied.size(), saved.size());
  for (size_t n = 0; n < saved.size(); ++n) {
    EXPECT_EQ(copied[n]->config().hidden_dims, saved[n].config().hidden_dims);
    EXPECT_EQ(copied[n]->config().activation, saved[n].config().activation);
    std::vector<Matrix*> want = saved[n].Params();
    std::vector<Matrix*> got = copied[n]->Params();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i]->SameShape(*want[i])) << n << "/" << i;
      EXPECT_EQ(std::memcmp(got[i]->data(), want[i]->data(),
                            static_cast<size_t>(got[i]->size()) *
                                sizeof(double)),
                0)
          << "network " << n << ", parameter matrix " << i;
    }
  }

  const FrozenPolicy& live = *optimizer.policy();
  const FrozenPolicy& published = *(*snapshot)->view;
  MlpWorkspace live_ws;
  MlpWorkspace published_ws;
  const std::vector<bool> mask(static_cast<size_t>(action_dim), true);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<double> state(static_cast<size_t>(state_dim));
    for (double& x : state) x = rng.Uniform();
    EXPECT_EQ(published.Probabilities(state, mask, &published_ws),
              live.Probabilities(state, mask, &live_ws));
    EXPECT_EQ(published.Value(state, mask, &published_ws),
              live.Value(state, mask, &live_ws));
  }
}

TEST(HandsFreeTest, SaveLoadRoundTripReproducesPlans) {
  const std::string path = ModelPath("roundtrip");
  HandsFreeConfig config = TinyConfig(TrainingStrategy::kIncrementalHybrid);
  std::vector<Query> workload = TinyWorkload(3, 3, 905);

  HandsFreeOptimizer trained(&testing::SharedEngine(), config);
  ASSERT_TRUE(trained.Train(workload).ok());
  ASSERT_TRUE(trained.SaveModel(path).ok());
  auto expected = trained.Optimize(workload[0]);
  ASSERT_TRUE(expected.ok());

  HandsFreeOptimizer restored(&testing::SharedEngine(), config);
  ASSERT_TRUE(restored.LoadModel(path).ok());
  auto actual = restored.Optimize(workload[0]);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_DOUBLE_EQ((*actual)->est_cost, (*expected)->est_cost);
  std::remove(path.c_str());
}

// Regression for the plan-time determinism contract: greedy inference
// breaks ties by action index — never by Rng state — and stochastic
// searches derive their streams per call, so a fresh-loaded model gives
// bit-identical Optimize results no matter how much sampling (training
// episodes, prior searches) happened in between, for every strategy. The
// searched side is a second facade configured for best-of-4 that loads
// the same saved model.
TEST_P(HandsFreeStrategyTest, OptimizeDeterministicAfterLoadRegardlessOfPriorSampling) {
  const std::string path = ModelPath(
      std::string("determinism_") +
      std::to_string(static_cast<int>(GetParam())));
  HandsFreeConfig config = TinyConfig(GetParam());
  std::vector<Query> workload = TinyWorkload(4, 3, 910);

  HandsFreeOptimizer trained(&testing::SharedEngine(), config);
  ASSERT_TRUE(trained.Train(workload).ok());
  ASSERT_TRUE(trained.SaveModel(path).ok());

  HandsFreeConfig searched_config = config;
  searched_config.search.mode = SearchMode::kBestOfK;
  searched_config.search.best_of_k = 4;
  HandsFreeOptimizer restored(&testing::SharedEngine(), config);
  HandsFreeOptimizer searched(&testing::SharedEngine(), searched_config);
  ASSERT_TRUE(restored.LoadModel(path).ok());
  ASSERT_TRUE(searched.LoadModel(path).ok());

  for (const Query& q : workload) {
    auto first = restored.Optimize(q);
    ASSERT_TRUE(first.ok());
    auto first_searched = searched.Optimize(q);
    ASSERT_TRUE(first_searched.ok());
    // Perturb anything stateful between the calls: more training (which
    // samples from the strategy's Rng; the incremental curriculum is not
    // re-entrant under fixed query names, so it is perturbed by searches
    // alone) and interleaved stochastic searches.
    if (GetParam() != TrainingStrategy::kIncrementalHybrid) {
      ASSERT_TRUE(restored.Train(workload).ok());
      ASSERT_TRUE(searched.Train(workload).ok());
    }
    for (int burn = 0; burn < 3; ++burn) {
      ASSERT_TRUE(searched.Optimize(workload[0]).ok());
    }
    // Back to the saved model.
    ASSERT_TRUE(restored.LoadModel(path).ok());
    ASSERT_TRUE(searched.LoadModel(path).ok());
    auto second = restored.Optimize(q);
    ASSERT_TRUE(second.ok());
    auto second_searched = searched.Optimize(q);
    ASSERT_TRUE(second_searched.ok());
    EXPECT_EQ((*first)->est_cost, (*second)->est_cost) << q.name;
    EXPECT_EQ((*first)->ToString(q), (*second)->ToString(q)) << q.name;
    EXPECT_EQ((*first_searched)->est_cost, (*second_searched)->est_cost)
        << q.name;
    EXPECT_EQ((*first_searched)->ToString(q), (*second_searched)->ToString(q))
        << q.name;
  }
  std::remove(path.c_str());
}

// Every strategy's searched inference is never costlier than its greedy
// inference (the greedy rollout is always in the candidate set), and the
// facade's configured search mode is what Optimize runs: each searched
// facade loads the greedy facade's saved model and must return the plan
// that EvaluateLearnedOnEnv finds under the same search config.
TEST_P(HandsFreeStrategyTest, SearchModesNeverWorseThanGreedyByCost) {
  HandsFreeConfig config = TinyConfig(GetParam());
  HandsFreeOptimizer optimizer(&testing::SharedEngine(), config);
  std::vector<Query> workload = TinyWorkload(4, 4, 911);
  ASSERT_TRUE(optimizer.Train(workload).ok());
  const std::string path = ModelPath(
      std::string("searchcfg_") + std::to_string(static_cast<int>(GetParam())));
  ASSERT_TRUE(optimizer.SaveModel(path).ok());

  SearchConfig best_of_8;
  best_of_8.mode = SearchMode::kBestOfK;
  best_of_8.best_of_k = 8;
  SearchConfig beam_4;
  beam_4.mode = SearchMode::kBeam;
  beam_4.beam_width = 4;

  std::unique_ptr<FullPipelineEnv> env = optimizer.MakeWorkerEnv();
  MlpWorkspace ws;
  for (const SearchConfig& mode : {best_of_8, beam_4}) {
    HandsFreeConfig mode_config = config;
    mode_config.search = mode;
    HandsFreeOptimizer searched(&testing::SharedEngine(), mode_config);
    ASSERT_TRUE(searched.LoadModel(path).ok());
    for (const Query& q : workload) {
      auto greedy = optimizer.Optimize(q);
      ASSERT_TRUE(greedy.ok());
      auto via_config = searched.Optimize(q);
      ASSERT_TRUE(via_config.ok()) << via_config.status().ToString();
      EXPECT_LE((*via_config)->est_cost, (*greedy)->est_cost + 1e-12)
          << q.name << " " << SearchConfigName(mode);
      PlanNodePtr via_eval;
      ASSERT_TRUE(optimizer
                      .EvaluateLearnedOnEnv(env.get(), q, &ws, mode,
                                            /*plan_repeats=*/1,
                                            /*scratch=*/nullptr, &via_eval)
                      .ok());
      EXPECT_EQ((*via_config)->ToString(q), via_eval->ToString(q))
          << q.name << " " << SearchConfigName(mode);
    }
  }
  std::remove(path.c_str());
}

TEST(HandsFreeTest, SaveBeforeTrainFails) {
  HandsFreeOptimizer optimizer(
      &testing::SharedEngine(),
      TinyConfig(TrainingStrategy::kLearningFromDemonstration));
  EXPECT_FALSE(optimizer.SaveModel(ModelPath("untrained")).ok());
}

TEST(HandsFreeTest, LoadRejectsStrategyMismatch) {
  const std::string path = ModelPath("mismatch");
  HandsFreeOptimizer trained(
      &testing::SharedEngine(),
      TinyConfig(TrainingStrategy::kCostModelBootstrapping));
  ASSERT_TRUE(trained.Train(TinyWorkload(3, 3, 906)).ok());
  ASSERT_TRUE(trained.SaveModel(path).ok());

  HandsFreeOptimizer other(
      &testing::SharedEngine(),
      TinyConfig(TrainingStrategy::kLearningFromDemonstration));
  EXPECT_FALSE(other.LoadModel(path).ok());
  std::remove(path.c_str());
}

TEST(HandsFreeTest, LoadRejectsMissingFile) {
  HandsFreeOptimizer optimizer(
      &testing::SharedEngine(),
      TinyConfig(TrainingStrategy::kIncrementalHybrid));
  EXPECT_FALSE(optimizer.LoadModel("/nonexistent/hfq_model.txt").ok());
}

}  // namespace
}  // namespace hfq
