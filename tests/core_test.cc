// Tests for src/core: engine wiring, reward signals (including the paper's
// scaling formula), the full-pipeline environment, expert-episode replay,
// the three training strategies, and the facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>

#include "core/bootstrap.h"
#include "core/demonstration.h"
#include "core/full_env.h"
#include "core/hands_free.h"
#include "core/incremental.h"
#include "core/pg_trainer.h"
#include "core/reward.h"
#include "tests/test_common.h"
#include "workload/generator.h"

namespace hfq {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  CoreTest()
      : featurizer_(kN, &testing::SharedEngine().estimator()),
        env_(&featurizer_, &testing::SharedEngine().expert()) {}

  Engine& engine() { return testing::SharedEngine(); }

  Query MakeQuery(int n, uint64_t seed, const std::string& name) {
    WorkloadGenerator gen(&engine().catalog(), seed);
    auto q = gen.GenerateQuery(n, name);
    HFQ_CHECK(q.ok());
    return std::move(*q);
  }

  // Random rollout through env_; returns the final plan's cost.
  double RandomRollout(const Query& q, uint64_t seed) {
    env_.SetQuery(&q);
    env_.Reset();
    Rng rng(seed);
    while (!env_.Done()) {
      std::vector<bool> mask = env_.ActionMask();
      std::vector<int> valid;
      for (int a = 0; a < env_.action_dim(); ++a) {
        if (mask[static_cast<size_t>(a)]) valid.push_back(a);
      }
      HFQ_CHECK(!valid.empty());
      env_.Step(rng.Choice(valid));
    }
    return env_.FinalPlan()->est_cost;
  }

  static constexpr int kN = 8;
  RejoinFeaturizer featurizer_;
  FullPipelineEnv env_;
};

// A cost reward that counts its Score calls and checks it is handed a
// finished, annotated plan.
class CountingReward : public RewardSignal {
 public:
  PlanScore Score(const Query& query, const PlanNode& plan) override {
    EXPECT_GT(plan.est_cost, 0.0) << query.name;
    calls_.fetch_add(1);
    return {-std::log10(std::max(1.0, plan.est_cost)), plan.est_cost};
  }
  std::string name() const override { return "counting"; }
  int calls() const { return calls_.load(); }

 private:
  std::atomic<int> calls_{0};
};

TEST_F(CoreTest, EngineWiresEverything) {
  Engine& e = engine();
  EXPECT_EQ(e.catalog().tables().size(), 21u);
  EXPECT_GT(e.db().TotalRows(), 1000);
  Query q = MakeQuery(4, 100, "engine_q");
  auto expert = e.RunExpert(q);
  ASSERT_TRUE(expert.ok());
  EXPECT_GT(expert->cost, 0.0);
  EXPECT_GT(expert->latency_ms, 0.0);
  EXPECT_GT(expert->planning_ms, 0.0);
}

TEST(RewardTest, ReciprocalCostMatchesPaperForm) {
  Engine& e = testing::SharedEngine();
  ReciprocalCostReward reward(1e5);
  WorkloadGenerator gen(&e.catalog(), 101);
  auto q = gen.GenerateQuery(3, "rw1");
  ASSERT_TRUE(q.ok());
  auto plan = e.expert().Optimize(*q);
  ASSERT_TRUE(plan.ok());
  const PlanScore score = reward.Score(*q, **plan);
  EXPECT_NEAR(score.reward, 1e5 / score.metric, 1e-9);
  EXPECT_EQ(score.metric, (*plan)->est_cost);
  EXPECT_GT(score.metric, 0.0);
}

TEST(RewardTest, ScalingFormulaExact) {
  Engine& e = testing::SharedEngine();
  ScaledLatencyReward reward(&e.latency());
  EXPECT_FALSE(reward.calibrated());
  // Paper example: costs 10-50, latencies 100-200 (seconds there, ms here).
  reward.Calibrate(10.0, 50.0, 100.0, 200.0);
  ASSERT_TRUE(reward.calibrated());
  EXPECT_DOUBLE_EQ(reward.ScaleLatency(100.0), 10.0);
  EXPECT_DOUBLE_EQ(reward.ScaleLatency(200.0), 50.0);
  EXPECT_DOUBLE_EQ(reward.ScaleLatency(150.0), 30.0);
  // Extrapolation beyond the observed band.
  EXPECT_DOUBLE_EQ(reward.ScaleLatency(300.0), 90.0);
}

TEST(RewardTest, NegLogRewardsOrderPlansCorrectly) {
  Engine& e = testing::SharedEngine();
  WorkloadGenerator gen(&e.catalog(), 102);
  auto q = gen.GenerateQuery(4, "rw2");
  ASSERT_TRUE(q.ok());
  q->aggregates.clear();
  q->group_by.clear();
  auto good = e.expert().Optimize(*q);
  ASSERT_TRUE(good.ok());
  // A deliberately bad plan: NLJ-only left-deep in arbitrary order.
  OptimizerOptions bad_opts;
  bad_opts.enable_hashjoin = false;
  bad_opts.enable_mergejoin = false;
  bad_opts.enable_indexnestloop = false;
  bad_opts.enable_indexscan = false;
  TraditionalOptimizer bad_opt(&e.catalog(), &e.cost_model(), bad_opts);
  auto tree = LeftDeepTree({3, 2, 1, 0});
  auto bad = bad_opt.PhysicalizeJoinTree(*q, *tree);
  ASSERT_TRUE(bad.ok());
  NegLogLatencyReward reward(&e.latency());
  double r_good = reward.Score(*q, **good).reward;
  double r_bad = reward.Score(*q, **bad).reward;
  EXPECT_GE(r_good, r_bad);
}

TEST_F(CoreTest, FullEpisodeProducesCompletePlan) {
  Query q = MakeQuery(5, 103, "full_ep");
  double cost = RandomRollout(q, 1);
  EXPECT_GT(cost, 0.0);
  const PlanNode* plan = env_.FinalPlan();
  const PlanNode* joins = plan->IsAggregate() ? plan->child(0) : plan;
  EXPECT_EQ(joins->rels, RelSetAll(5));
  // Every node annotated.
  std::vector<const PlanNode*> nodes;
  plan->CollectNodes(&nodes);
  for (const PlanNode* node : nodes) {
    EXPECT_GT(node->est_cost, 0.0) << PhysicalOpName(node->op);
  }
}

TEST_F(CoreTest, StagePrefixesReduceEpisodeLength) {
  Query q = MakeQuery(5, 104, "prefix_ep");
  auto episode_length = [&](PipelineStages stages) {
    env_.set_stages(stages);
    env_.SetQuery(&q);
    env_.Reset();
    Rng rng(2);
    int steps = 0;
    while (!env_.Done()) {
      std::vector<bool> mask = env_.ActionMask();
      std::vector<int> valid;
      for (int a = 0; a < env_.action_dim(); ++a) {
        if (mask[static_cast<size_t>(a)]) valid.push_back(a);
      }
      env_.Step(rng.Choice(valid));
      ++steps;
    }
    return steps;
  };
  int join_only = episode_length(PipelineStages::JoinOrderOnly());
  int all = episode_length(PipelineStages::All());
  EXPECT_EQ(join_only, 4);  // n-1 join decisions only.
  EXPECT_GT(all, join_only);
  env_.set_stages(PipelineStages::All());
}

TEST_F(CoreTest, PipelineStagesPrefixHelper) {
  EXPECT_EQ(PipelineStages::Prefix(1).CountEnabled(), 1);
  EXPECT_EQ(PipelineStages::Prefix(4).CountEnabled(), 4);
  EXPECT_TRUE(PipelineStages::Prefix(2).access_paths);
  EXPECT_FALSE(PipelineStages::Prefix(2).join_operators);
}

TEST_F(CoreTest, ExpertEpisodeReplaysExpertDecisions) {
  Query q = MakeQuery(5, 105, "expert_ep");
  auto expert_plan = engine().expert().Optimize(q);
  ASSERT_TRUE(expert_plan.ok());
  auto episode = env_.ExpertEpisode(q, **expert_plan);
  ASSERT_TRUE(episode.ok()) << episode.status().ToString();
  EXPECT_FALSE(episode->steps.empty());
  // The env's final plan must reach the same cost as the expert's plan:
  // identical join tree + operator decisions imply identical costing.
  EXPECT_NEAR(env_.FinalPlan()->est_cost, (*expert_plan)->est_cost,
              1e-6 * (*expert_plan)->est_cost);
  // Every recorded action was marked valid in its recorded mask.
  for (const Transition& t : episode->steps) {
    EXPECT_TRUE(t.mask[static_cast<size_t>(t.action)]);
  }
}

// ReJOIN's plan is the expert's physicalization of its join order: with
// only the join-order stage enabled, the env builds exactly the plan
// PhysicalizeJoinTree builds for whatever join tree the agent reaches.
TEST(RejoinPlanTest, JoinOrderOnlyPlanIsTheExpertPhysicalization) {
  Engine& e = testing::SharedEngine();
  RejoinFeaturizer featurizer(12, &e.estimator());
  FullEnvConfig config;
  config.stages = PipelineStages::JoinOrderOnly();
  FullPipelineEnv env(&featurizer, &e.expert(), config);
  WorkloadGenerator gen(&e.catalog(), 2019);
  Rng rng(11);
  for (int n = 2; n <= 12; ++n) {
    for (int variant = 0; variant < 3; ++variant) {
      auto q = gen.GenerateQuery(n, "rejoin_equiv" + std::to_string(n) + "_" +
                                        std::to_string(variant));
      ASSERT_TRUE(q.ok());
      env.SetQuery(&*q);
      env.Reset();
      while (!env.Done()) {
        std::vector<bool> mask = env.ActionMask();
        std::vector<int> valid;
        for (int a = 0; a < env.action_dim(); ++a) {
          if (mask[static_cast<size_t>(a)]) valid.push_back(a);
        }
        ASSERT_FALSE(valid.empty());
        env.Step(rng.Choice(valid));
      }
      const PlanNode* plan = env.FinalPlan();
      std::unique_ptr<JoinTreeNode> tree = JoinTreeOf(*plan);
      EXPECT_EQ(tree->rels, RelSetAll(n));
      auto expert = e.expert().PhysicalizeJoinTree(*q, *tree);
      ASSERT_TRUE(expert.ok());
      EXPECT_EQ(plan->ToString(*q), (*expert)->ToString(*q)) << q->name;
      EXPECT_EQ(plan->est_cost, (*expert)->est_cost) << q->name;
    }
  }
}

TEST_F(CoreTest, AllowCrossProductsInflatesActionSpace) {
  FullEnvConfig config;
  config.allow_cross_products = true;
  FullPipelineEnv wide(&featurizer_, &engine().expert(), config);
  Query q = MakeQuery(5, 106, "cross_ep");
  wide.SetQuery(&q);
  wide.Reset();
  env_.SetQuery(&q);
  env_.Reset();
  auto count_valid = [](const std::vector<bool>& mask) {
    int n = 0;
    for (bool b : mask) {
      if (b) ++n;
    }
    return n;
  };
  EXPECT_GT(count_valid(wide.ActionMask()), count_valid(env_.ActionMask()));
}

// The trainer scores each sampled episode's plan exactly once, after its
// last step, on whichever worker ran it; the score is that episode's
// return.
TEST_F(CoreTest, TrainerScoresEachEpisodeOnce) {
  std::vector<Query> workload = {MakeQuery(3, 110, "count_q0"),
                                 MakeQuery(5, 111, "count_q1"),
                                 MakeQuery(4, 112, "count_q2")};
  PolicyGradientConfig pg;
  pg.hidden_dims = {16};
  for (int workers : {1, 4}) {
    CountingReward reward;
    PolicyGradientTrainer trainer(&env_, &reward, pg,
                                  /*episodes_per_update=*/4, workers,
                                  /*seed=*/5);
    int episodes = 0;
    trainer.Train(workload, 10, [&](const TrainedEpisode& trained) {
      EXPECT_LT(trained.reward, 0.0) << "episode " << trained.index;
      ++episodes;
    });
    EXPECT_EQ(episodes, 10);
    EXPECT_EQ(reward.calls(), 10) << workers << " workers";
  }
}

TEST_F(CoreTest, DemonstrationLearnerLifecycle) {
  LfdConfig config;
  config.predictor.hidden_dims = {32};
  config.pretrain_steps = 150;
  config.finetune_steps_per_episode = 2;
  DemonstrationLearner learner(&env_, &engine(), config, 23);
  std::vector<Query> workload;
  for (int i = 0; i < 3; ++i) {
    workload.push_back(
        MakeQuery(4, 200 + static_cast<uint64_t>(i), "lfd" + std::to_string(i)));
  }
  auto collected = learner.CollectDemonstrations(workload);
  ASSERT_TRUE(collected.ok());
  EXPECT_GT(*collected, 0);
  double loss = learner.Pretrain();
  EXPECT_GE(loss, 0.0);
  for (int e = 0; e < 6; ++e) {
    LfdEpisodeStats stats =
        learner.FineTuneEpisode(workload[static_cast<size_t>(e) % 3]);
    EXPECT_GT(stats.latency_ms, 0.0);
  }
  EXPECT_EQ(learner.episodes_run(), 6);
  double eval = learner.EvaluateQuery(workload[0]);
  EXPECT_GT(eval, 0.0);
}

TEST_F(CoreTest, PretrainedPredictorTracksExpertLatencies) {
  // After pre-training, predictions on expert states should correlate with
  // the recorded targets (mean abs error well under the target spread).
  LfdConfig config;
  config.predictor.hidden_dims = {32};
  config.pretrain_steps = 600;
  DemonstrationLearner learner(&env_, &engine(), config, 29);
  std::vector<Query> workload;
  for (int i = 0; i < 6; ++i) {
    workload.push_back(MakeQuery(4, 300 + static_cast<uint64_t>(i),
                                 "lfdp" + std::to_string(i)));
  }
  ASSERT_TRUE(learner.CollectDemonstrations(workload).ok());
  learner.Pretrain();
  EXPECT_LT(learner.predictor().EvaluateError(128), 1.0);
}

TEST_F(CoreTest, BootstrapPhasesAndCalibration) {
  BootstrapConfig config;
  config.pg.hidden_dims = {32};
  config.switch_mode = BootstrapSwitchMode::kScaled;
  BootstrapTrainer trainer(&env_, &engine(), config, 31);
  std::vector<Query> workload = {MakeQuery(4, 400, "bs1"),
                                 MakeQuery(5, 401, "bs2")};
  int phase1_count = 0, phase2_count = 0;
  trainer.RunPhase1(workload, 24, [&](const BootstrapEpisodeStats& s) {
    EXPECT_EQ(s.phase, 1);
    EXPECT_GT(s.cost, 0.0);
    EXPECT_GT(s.latency_ms, 0.0);
    ++phase1_count;
  });
  EXPECT_EQ(phase1_count, 24);
  trainer.SwitchToPhase2();
  EXPECT_TRUE(trainer.scaled_reward().calibrated());
  trainer.RunPhase2(workload, 12, [&](const BootstrapEpisodeStats& s) {
    EXPECT_EQ(s.phase, 2);
    ++phase2_count;
  });
  EXPECT_EQ(phase2_count, 12);
}

TEST_F(CoreTest, BootstrapUnscaledModeSkipsCalibration) {
  BootstrapConfig config;
  config.pg.hidden_dims = {16};
  config.switch_mode = BootstrapSwitchMode::kUnscaled;
  BootstrapTrainer trainer(&env_, &engine(), config, 37);
  std::vector<Query> workload = {MakeQuery(4, 402, "bs3")};
  trainer.RunPhase1(workload, 8);
  trainer.SwitchToPhase2();
  EXPECT_FALSE(trainer.scaled_reward().calibrated());
  trainer.RunPhase2(workload, 4);
}

TEST(CurriculumTest, BuildsExpectedShapes) {
  auto flat = BuildCurriculum(CurriculumKind::kFlat, 100, 8);
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_EQ(flat[0].episodes, 100);
  EXPECT_EQ(flat[0].stages.CountEnabled(), 4);

  auto pipeline = BuildCurriculum(CurriculumKind::kPipeline, 100, 8);
  ASSERT_EQ(pipeline.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(pipeline[i].stages.CountEnabled(), static_cast<int>(i) + 1);
    EXPECT_EQ(pipeline[i].max_relations, 8);
  }

  auto relations = BuildCurriculum(CurriculumKind::kRelations, 100, 8);
  ASSERT_EQ(relations.size(), 7u);  // n = 2..8.
  for (size_t i = 0; i < relations.size(); ++i) {
    EXPECT_EQ(relations[i].max_relations, static_cast<int>(i) + 2);
    EXPECT_EQ(relations[i].stages.CountEnabled(), 4);
  }

  auto hybrid = BuildCurriculum(CurriculumKind::kHybrid, 100, 8);
  ASSERT_GE(hybrid.size(), 4u);
  EXPECT_EQ(hybrid[0].stages.CountEnabled(), 1);
  EXPECT_LE(hybrid[0].max_relations, 3);
  EXPECT_EQ(hybrid.back().stages.CountEnabled(), 4);
  EXPECT_EQ(hybrid.back().max_relations, 8);
}

TEST(CurriculumTest, EveryKindSumsExactlyToTotalEpisodes) {
  // Regression: truncation used to make phases sum to fewer (or, via the
  // max(1, .) floor, more) episodes than total_episodes — e.g. kPipeline
  // with total=1001 yielded 1000.
  const CurriculumKind kinds[] = {CurriculumKind::kFlat,
                                  CurriculumKind::kPipeline,
                                  CurriculumKind::kRelations,
                                  CurriculumKind::kHybrid};
  for (CurriculumKind kind : kinds) {
    for (int max_relations : {2, 5, 8, 17}) {
      for (int total : {1,  2,  3,   5,   7,    8,   13,  16, 17,
                        31, 99, 100, 101, 1000, 1001, 2000, 4999}) {
        auto phases = BuildCurriculum(kind, total, max_relations);
        int sum = 0;
        for (const auto& phase : phases) {
          EXPECT_GE(phase.episodes, 0);
          sum += phase.episodes;
        }
        EXPECT_EQ(sum, total)
            << CurriculumKindName(kind) << " total=" << total
            << " max_relations=" << max_relations;
        // When the budget covers every phase, none runs empty.
        if (total >= static_cast<int>(phases.size())) {
          for (const auto& phase : phases) EXPECT_GE(phase.episodes, 1);
        }
      }
    }
  }
}

TEST(CurriculumTest, PipelineRegression1001) {
  auto phases = BuildCurriculum(CurriculumKind::kPipeline, 1001, 8);
  int sum = 0;
  for (const auto& phase : phases) sum += phase.episodes;
  EXPECT_EQ(sum, 1001);
}

TEST(CurriculumTest, DistributeEpisodesLargestRemainder) {
  // 1001 over {0.15, 0.2, 0.3, 0.35}: ideals 150.15 / 200.2 / 300.3 /
  // 350.35 -> floors 150/200/300/350 (sum 1000), remainder 1 goes to the
  // largest fraction (350.35).
  std::vector<int> got = DistributeEpisodes({0.15, 0.2, 0.3, 0.35}, 1001);
  EXPECT_EQ(got, (std::vector<int>{150, 200, 300, 351}));
  // Deterministic tie-break: equal fractions resolve by lower index.
  EXPECT_EQ(DistributeEpisodes({1.0, 1.0, 1.0, 1.0}, 6),
            (std::vector<int>{2, 2, 1, 1}));
  // Zero-episode buckets only when the budget cannot cover every bucket.
  std::vector<int> tiny = DistributeEpisodes({1.0, 1.0, 1.0, 1.0}, 2);
  EXPECT_EQ(tiny[0] + tiny[1] + tiny[2] + tiny[3], 2);
  // A tiny weight still gets its floor of 1 when the budget allows.
  std::vector<int> floored = DistributeEpisodes({0.0001, 1.0, 1.0, 1.0}, 4);
  EXPECT_EQ(floored[0] + floored[1] + floored[2] + floored[3], 4);
  EXPECT_GE(floored[0], 1);
}

TEST_F(CoreTest, IncrementalTrainerRunsAllPhases) {
  WorkloadGenerator gen(&engine().catalog(), 500);
  PolicyGradientConfig pg;
  pg.hidden_dims = {32};
  NegLogCostReward reward;
  IncrementalTrainer trainer(&env_, &reward, &gen, pg, 4, 41);
  std::vector<CurriculumPhase> phases =
      BuildCurriculum(CurriculumKind::kPipeline, 24, 5);
  std::set<int> phases_seen;
  Status status =
      trainer.Run(phases, /*queries_per_phase=*/4,
                  [&](const CurriculumEpisodeStats& s) {
                    phases_seen.insert(s.phase_index);
                  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(phases_seen.size(), 4u);
  env_.set_stages(PipelineStages::All());
}

TEST(HandsFreeTest, FacadeTrainsAndOptimizes) {
  Engine& e = testing::SharedEngine();
  WorkloadGenerator gen(&e.catalog(), 600);
  std::vector<Query> workload;
  for (int i = 0; i < 4; ++i) {
    auto q = gen.GenerateQuery(4, "hf" + std::to_string(i));
    ASSERT_TRUE(q.ok());
    workload.push_back(std::move(*q));
  }
  HandsFreeConfig config;
  config.strategy = TrainingStrategy::kLearningFromDemonstration;
  config.max_relations = 8;
  config.training_episodes = 20;
  config.lfd.pretrain_steps = 100;
  HandsFreeOptimizer optimizer(&e, config);
  // Optimize before Train fails cleanly.
  EXPECT_EQ(optimizer.Optimize(workload[0]).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(optimizer.Train(workload).ok());
  double planning_ms = -1.0;
  auto plan = optimizer.Optimize(workload[0], &planning_ms);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GE(planning_ms, 0.0);
  auto comparison = optimizer.Compare(workload[1]);
  ASSERT_TRUE(comparison.ok());
  EXPECT_GT(comparison->expert_latency_ms, 0.0);
  EXPECT_GT(comparison->learned_latency_ms, 0.0);
}

TEST(HandsFreeTest, RejectsOversizedQueries) {
  Engine& e = testing::SharedEngine();
  WorkloadGenerator gen(&e.catalog(), 601);
  auto small = gen.GenerateQuery(3, "small");
  auto big = gen.GenerateQuery(7, "big");
  ASSERT_TRUE(small.ok() && big.ok());
  HandsFreeConfig config;
  config.strategy = TrainingStrategy::kCostModelBootstrapping;
  config.max_relations = 5;
  config.training_episodes = 8;
  HandsFreeOptimizer optimizer(&e, config);
  ASSERT_TRUE(optimizer.Train({*small}).ok());
  EXPECT_EQ(optimizer.Optimize(*big).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hfq
