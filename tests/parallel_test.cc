// Parallel rollout-collection contract tests:
//   * the 1-worker parallel path reproduces the (pre-threadpool) serial
//     trainer bit-for-bit — trajectories and final network weights —
//     training ReJOIN (the pipeline env's join-order stage);
//   * an N-worker run is deterministic for a fixed seed and worker count;
//   * parallel demonstration collection equals the serial pass;
//   * the facade hands its worker count to the strategy backend.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/hands_free.h"
#include "core/pg_trainer.h"
#include "core/reward.h"
#include "tests/test_common.h"
#include "workload/generator.h"

namespace hfq {
namespace {

void ExpectEpisodesEqual(const Episode& a, const Episode& b) {
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    const Transition& x = a.steps[i];
    const Transition& y = b.steps[i];
    EXPECT_EQ(x.action, y.action);
    EXPECT_EQ(x.old_prob, y.old_prob);  // Bitwise.
    EXPECT_EQ(x.reward, y.reward);
    ASSERT_EQ(x.state.size(), y.state.size());
    for (size_t j = 0; j < x.state.size(); ++j) {
      EXPECT_EQ(x.state[j], y.state[j]);
    }
    EXPECT_EQ(x.mask, y.mask);
  }
}

void ExpectNetsEqual(Mlp& a, Mlp& b) {
  auto pa = a.Params();
  auto pb = b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_TRUE(pa[i]->SameShape(*pb[i]));
    for (int64_t j = 0; j < pa[i]->size(); ++j) {
      EXPECT_EQ(pa[i]->data()[j], pb[i]->data()[j]);
    }
  }
}

class ParallelRolloutTest : public ::testing::Test {
 protected:
  ParallelRolloutTest()
      : featurizer_(kN, &testing::SharedEngine().estimator()),
        // Thread-safe reward: it reads the plan it is given.
        reward_(1e5),
        env_(&featurizer_, &testing::SharedEngine().expert()) {
    env_.set_stages(PipelineStages::JoinOrderOnly());
  }

  Query MakeQuery(int n, uint64_t seed, const std::string& name) {
    WorkloadGenerator gen(&testing::SharedEngine().catalog(), seed);
    auto q = gen.GenerateQuery(n, name);
    HFQ_CHECK(q.ok());
    return std::move(*q);
  }

  std::vector<Query> MakeWorkload(uint64_t seed, const std::string& prefix) {
    std::vector<Query> workload;
    workload.push_back(MakeQuery(5, seed, prefix + "_a"));
    workload.push_back(MakeQuery(6, seed + 1, prefix + "_b"));
    workload.push_back(MakeQuery(4, seed + 2, prefix + "_c"));
    return workload;
  }

  static constexpr int kN = 8;
  RejoinFeaturizer featurizer_;
  ReciprocalCostReward reward_;
  FullPipelineEnv env_;
};

TEST_F(ParallelRolloutTest, OneWorkerMatchesSerialReferenceBitForBit) {
  std::vector<Query> workload = MakeWorkload(100, "eq");
  constexpr int kEpisodes = 50;
  constexpr uint64_t kSeed = 33;
  constexpr int kEpisodesPerUpdate = 8;
  PolicyGradientConfig pg;
  pg.hidden_dims = {24, 24};

  // The trainer's (round-based, workspace-inference) path.
  PolicyGradientTrainer trainer(&env_, &reward_, pg, kEpisodesPerUpdate,
                                /*num_rollout_workers=*/1, kSeed);
  std::vector<Episode> trainer_trajs;
  trainer.Train(workload, kEpisodes, nullptr,
                [&trainer_trajs](int e, const FullPipelineEnv&,
                                 const Episode& ep, const PlanScore& score) {
                  ASSERT_EQ(e, static_cast<int>(trainer_trajs.size()));
                  if (!ep.steps.empty()) {
                    EXPECT_EQ(score.reward, ep.steps.back().reward);
                  }
                  trainer_trajs.push_back(ep);
                });

  // Hand-rolled serial reference replicating the pre-parallelism trainer:
  // mutating SampleAction from the agent's rng, the finished plan scored
  // onto the last transition, update every episodes_per_update episodes,
  // trailing flush.
  PolicyGradientAgent reference(env_.state_dim(), env_.action_dim(), pg,
                                kSeed);
  std::vector<Episode> reference_trajs;
  std::vector<Episode> pending;
  for (int e = 0; e < kEpisodes; ++e) {
    const Query& query = workload[static_cast<size_t>(e) % workload.size()];
    env_.SetQuery(&query);
    env_.Reset();
    Episode episode;
    while (!env_.Done()) {
      Transition t;
      t.state = env_.StateVector();
      t.mask = env_.ActionMask();
      t.action = reference.SampleAction(t.state, t.mask, &t.old_prob);
      env_.Step(t.action);
      episode.steps.push_back(std::move(t));
    }
    if (!episode.steps.empty()) {
      episode.steps.back().reward =
          reward_.Score(query, *env_.FinalPlan()).reward;
    }
    reference_trajs.push_back(episode);
    if (!episode.steps.empty()) {
      pending.push_back(std::move(episode));
      if (static_cast<int>(pending.size()) >= kEpisodesPerUpdate) {
        reference.Update(pending);
        pending.clear();
      }
    }
  }
  if (!pending.empty()) reference.Update(pending);

  ASSERT_EQ(trainer_trajs.size(), reference_trajs.size());
  for (size_t i = 0; i < trainer_trajs.size(); ++i) {
    ExpectEpisodesEqual(trainer_trajs[i], reference_trajs[i]);
  }
  ExpectNetsEqual(trainer.agent().policy_net(), reference.policy_net());
  ExpectNetsEqual(trainer.agent().value_net(), reference.value_net());
}

TEST_F(ParallelRolloutTest, NWorkerRunIsDeterministicForFixedSeed) {
  std::vector<Query> workload = MakeWorkload(200, "det");
  constexpr int kEpisodes = 40;
  constexpr int kWorkers = 3;
  constexpr uint64_t kSeed = 55;

  auto run = [&](std::vector<Episode>* trajs) {
    FullPipelineEnv primary(&featurizer_, &testing::SharedEngine().expert());
    primary.set_stages(PipelineStages::JoinOrderOnly());
    PolicyGradientConfig pg;
    pg.hidden_dims = {24, 24};
    PolicyGradientTrainer trainer(&primary, &reward_, pg,
                                  /*episodes_per_update=*/8, kWorkers, kSeed);
    // The harvest runs on the workers, each writing its own slot.
    trajs->resize(kEpisodes);
    trainer.Train(workload, kEpisodes, nullptr,
                  [trajs](int e, const FullPipelineEnv&, const Episode& ep,
                          const PlanScore&) {
                    (*trajs)[static_cast<size_t>(e)] = ep;
                  });
    Mlp policy(trainer.agent().policy_net());
    return policy;
  };

  std::vector<Episode> trajs1, trajs2;
  Mlp policy1 = run(&trajs1);
  Mlp policy2 = run(&trajs2);
  ASSERT_EQ(trajs1.size(), static_cast<size_t>(kEpisodes));
  ASSERT_EQ(trajs2.size(), static_cast<size_t>(kEpisodes));
  for (size_t i = 0; i < trajs1.size(); ++i) {
    ExpectEpisodesEqual(trajs1[i], trajs2[i]);
  }
  ExpectNetsEqual(policy1, policy2);
}

TEST(ParallelCoreTest, ParallelDemonstrationCollectionMatchesSerial) {
  Engine& engine = testing::SharedEngine();
  WorkloadGenerator gen(&engine.catalog(), 777);
  std::vector<Query> workload;
  for (int i = 0; i < 6; ++i) {
    auto q = gen.GenerateQuery(3 + i % 3, "lfd_par" + std::to_string(i));
    ASSERT_TRUE(q.ok());
    workload.push_back(std::move(*q));
  }

  auto make_learner = [&engine](FullPipelineEnv* env, int workers) {
    LfdConfig config;
    config.predictor.hidden_dims = {16};
    config.pretrain_steps = 30;
    config.num_rollout_workers = workers;
    return std::make_unique<DemonstrationLearner>(env, &engine, config,
                                                  /*seed=*/21);
  };

  RejoinFeaturizer featurizer(8, &engine.estimator());
  FullPipelineEnv env_serial(&featurizer, &engine.expert());
  FullPipelineEnv env_parallel(&featurizer, &engine.expert());

  auto serial = make_learner(&env_serial, 1);
  auto parallel = make_learner(&env_parallel, 3);
  auto collected_serial = serial->CollectDemonstrations(workload);
  auto collected_parallel = parallel->CollectDemonstrations(workload);
  ASSERT_TRUE(collected_serial.ok());
  ASSERT_TRUE(collected_parallel.ok());
  EXPECT_EQ(*collected_serial, *collected_parallel);
  EXPECT_EQ(serial->predictor().buffer_size(),
            parallel->predictor().buffer_size());

  // Identical example order + identical seeds: pre-training consumes the
  // same sample stream, so the resulting predictors agree exactly.
  serial->Pretrain();
  parallel->Pretrain();
  for (const Query& q : workload) {
    EXPECT_EQ(serial->EvaluateQuery(q), parallel->EvaluateQuery(q));
  }
}

// A facade built with num_rollout_workers = 3 trains exactly the weights
// of a BootstrapTrainer configured for 3 workers directly (workers w >= 1
// sample their own streams, so a 1-worker backend would diverge), and the
// facade trained that way plans and compares, repeatably.
TEST(ParallelCoreTest, FacadeTrainsWithItsWorkerCount) {
  Engine& engine = testing::SharedEngine();
  WorkloadGenerator gen(&engine.catalog(), 888);
  std::vector<Query> workload;
  for (int i = 0; i < 5; ++i) {
    auto q = gen.GenerateQuery(3 + i % 2, "hf_par" + std::to_string(i));
    ASSERT_TRUE(q.ok());
    workload.push_back(std::move(*q));
  }

  HandsFreeConfig config;
  config.strategy = TrainingStrategy::kCostModelBootstrapping;
  config.max_relations = 6;
  config.training_episodes = 32;
  config.num_rollout_workers = 3;
  config.bootstrap.pg.hidden_dims = {16};
  HandsFreeOptimizer optimizer(&engine, config);
  ASSERT_TRUE(optimizer.Train(workload).ok());

  // The same two-phase schedule Train runs, on a directly built backend.
  RejoinFeaturizer featurizer(config.max_relations, &engine.estimator());
  FullPipelineEnv env(&featurizer, &engine.expert());
  BootstrapConfig bootstrap = config.bootstrap;
  bootstrap.num_rollout_workers = 3;
  BootstrapTrainer direct(&env, &engine, bootstrap, config.seed);
  direct.RunPhase1(workload, config.training_episodes / 2);
  direct.SwitchToPhase2();
  direct.RunPhase2(workload,
                   config.training_episodes - config.training_episodes / 2);

  // SaveModel writes one header line, then the agent's weights.
  const std::string path = ::testing::TempDir() + "hfq_parallel_facade_" +
                           std::to_string(getpid()) + ".txt";
  ASSERT_TRUE(optimizer.SaveModel(path).ok());
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  std::stringstream saved;
  saved << in.rdbuf();
  std::remove(path.c_str());
  std::stringstream expected;
  ASSERT_TRUE(direct.agent().Save(expected).ok());
  EXPECT_EQ(saved.str(), expected.str());

  for (const Query& q : workload) {
    auto first = optimizer.Optimize(q);
    auto again = optimizer.Optimize(q);
    ASSERT_TRUE(first.ok() && again.ok());
    EXPECT_EQ((*first)->ToString(q), (*again)->ToString(q)) << q.name;
    auto cmp = optimizer.Compare(q);
    ASSERT_TRUE(cmp.ok()) << cmp.status().ToString();
    EXPECT_EQ(cmp->learned_cost, (*first)->est_cost) << q.name;
    EXPECT_GT(cmp->expert_cost, 0.0) << q.name;
  }
}

TEST(ParallelCoreTest, IncrementalTrainerParallelRunIsDeterministic) {
  Engine& engine = testing::SharedEngine();
  RejoinFeaturizer featurizer(6, &engine.estimator());
  NegLogCostReward reward;

  auto run = [&](std::vector<double>* rewards) {
    FullPipelineEnv env(&featurizer, &engine.expert());
    WorkloadGenerator gen(&engine.catalog(), 999);
    PolicyGradientConfig pg;
    pg.hidden_dims = {16};
    IncrementalTrainer trainer(&env, &reward, &gen, pg,
                               /*episodes_per_update=*/4,
                               /*seed=*/61, /*num_rollout_workers=*/3);
    std::vector<CurriculumPhase> phases =
        BuildCurriculum(CurriculumKind::kPipeline, 24, 5);
    Status status = trainer.Run(phases, /*queries_per_phase=*/4,
                                [rewards](const CurriculumEpisodeStats& s) {
                                  rewards->push_back(s.reward);
                                });
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(rewards->size(), 24u);
  };

  std::vector<double> rewards1, rewards2;
  run(&rewards1);
  run(&rewards2);
  ASSERT_EQ(rewards1.size(), rewards2.size());
  for (size_t i = 0; i < rewards1.size(); ++i) {
    EXPECT_EQ(rewards1[i], rewards2[i]);
  }
}

}  // namespace
}  // namespace hfq
