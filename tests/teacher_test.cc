// Tests for the search-as-teacher refinement loop (src/rl/teacher_loop, run
// on a trained ReJOIN agent, and HandsFreeOptimizer::RefineWithTeacher):
// the per-iteration greedy mean cost is non-increasing by construction, a
// frozen student re-discovers nothing (pool dedup), the loop is
// deterministic across identical trainers, the experience pool checkpoint
// round-trips and resumes, and the facade wires every strategy backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/full_env.h"
#include "core/hands_free.h"
#include "core/pg_trainer.h"
#include "core/reward.h"
#include "rl/experience_pool.h"
#include "rl/teacher_loop.h"
#include "search/plan_search.h"
#include "tests/test_common.h"
#include "workload/generator.h"

namespace hfq {
namespace {

// ReJOIN's 1/M(t), counting its Score calls (single-threaded here).
class CountingReward : public ReciprocalCostReward {
 public:
  CountingReward() : ReciprocalCostReward(1e5) {}
  PlanScore Score(const Query& query, const PlanNode& plan) override {
    ++calls;
    return ReciprocalCostReward::Score(query, plan);
  }
  int calls = 0;
};

// ReJOIN (the pipeline env with only its join-order stage) plus its
// policy-gradient trainer.
struct RejoinSetup {
  explicit RejoinSetup(RejoinFeaturizer* featurizer)
      : env(featurizer, &testing::SharedEngine().expert()),
        trainer(&env, &reward, PolicyGradientConfig(),
                /*episodes_per_update=*/8, /*num_rollout_workers=*/1,
                /*seed=*/20260730) {
    env.set_stages(PipelineStages::JoinOrderOnly());
  }

  /// Runs the teacher loop on the trained agent: `teacher_search` plans
  /// every workload query, and the agent learns the cheapest known plan.
  Result<std::vector<TeacherIterationStats>> RefineWithTeacher(
      const std::vector<Query>& workload, const TeacherConfig& teacher,
      const SearchConfig& teacher_search, ExperiencePool* pool) {
    AgentPolicy policy(&trainer.agent());
    AgentTeacherStudent student(&trainer.agent());
    return RefineStudent(workload, teacher, teacher_search, pool, &policy,
                         &student);
  }

  /// The loop with any policy and student over this env. Demos carry
  /// ReJOIN's reward; `demo_target` as in TeacherLoopTask.
  Result<std::vector<TeacherIterationStats>> RefineStudent(
      const std::vector<Query>& workload, const TeacherConfig& teacher,
      const SearchConfig& teacher_search, ExperiencePool* pool,
      const FrozenPolicy* policy, TeacherStudent* student,
      std::function<double(size_t, const Episode&, double)> demo_target =
          nullptr) {
    std::unique_ptr<PlanSearch> searcher = MakePlanSearch(teacher_search);
    MlpWorkspace ws;
    TeacherLoopTask task;
    task.env = &env;
    task.num_queries = workload.size();
    task.select_query = [this, &workload](size_t i) {
      env.SetQuery(&workload[i]);
      return workload[i].StructuralFingerprint();
    };
    task.search = [&](SearchEnv* search_env) -> Result<TeacherSearchOutcome> {
      SearchContext ctx{policy, /*rng=*/nullptr, &ws};
      const int calls = reward.calls;
      HFQ_ASSIGN_OR_RETURN(SearchResult found,
                           searcher->Search(search_env, ctx));
      scores_during_search += reward.calls - calls;
      return TeacherSearchOutcome{std::move(found.actions), found.cost};
    };
    task.policy = policy;
    task.student = student;
    task.pool = pool;
    task.demo_reward = [this, &workload](size_t i) {
      return reward.Score(workload[i], *env.FinalPlan()).reward;
    };
    task.demo_target = std::move(demo_target);
    return RunTeacherLoop(task, teacher);
  }

  CountingReward reward;
  FullPipelineEnv env;
  PolicyGradientTrainer trainer;
  int scores_during_search = 0;
};

class TeacherLoopTest : public ::testing::Test {
 protected:
  TeacherLoopTest()
      : featurizer_(kN, &testing::SharedEngine().estimator()),
        rejoin_(&featurizer_) {
    WorkloadGenerator gen(&testing::SharedEngine().catalog(), 99);
    for (int i = 0; i < 4; ++i) {
      auto q = gen.GenerateQuery(4 + i % 3, "teach_q" + std::to_string(i));
      HFQ_CHECK(q.ok());
      queries_.push_back(std::move(*q));
    }
    // Deliberately short training: the teacher needs a gap to close.
    rejoin_.trainer.Train(queries_, 48);
  }

  static SearchConfig Beam4() {
    SearchConfig config;
    config.mode = SearchMode::kBeam;
    config.beam_width = 4;
    return config;
  }

  static constexpr int kN = 8;
  RejoinFeaturizer featurizer_;
  RejoinSetup rejoin_;
  std::vector<Query> queries_;
};

TEST_F(TeacherLoopTest, GreedyMeanCostMonotoneNonIncreasing) {
  TeacherConfig teacher;
  teacher.iterations = 4;
  ExperiencePool pool;
  auto stats = rejoin_.RefineWithTeacher(queries_, teacher, Beam4(), &pool);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->size(), 4u);
  for (size_t i = 0; i < stats->size(); ++i) {
    const TeacherIterationStats& row = (*stats)[i];
    EXPECT_EQ(row.iteration, static_cast<int>(i));
    // FinalCost here is the plan's cost-model cost; only finiteness and
    // ordering are meaningful.
    EXPECT_TRUE(std::isfinite(row.teacher_mean_cost));
    EXPECT_TRUE(std::isfinite(row.greedy_mean_cost));
    // Every query has a best-known plan from iteration 0 on.
    EXPECT_EQ(row.demos, static_cast<int>(queries_.size()));
    if (i > 0) {
      EXPECT_LE(row.greedy_mean_cost, (*stats)[i - 1].greedy_mean_cost)
          << "iteration " << i;
    }
  }
  // The first iteration searched an empty pool: its winners are all new.
  EXPECT_GE((*stats)[0].new_plans, 1);
  EXPECT_GE(pool.size(), static_cast<size_t>((*stats)[0].new_plans));
}

TEST_F(TeacherLoopTest, FrozenStudentRediscoversNothing) {
  // learn_passes = 0 freezes the student: the second iteration's searches
  // replay the first's exactly, so pool dedup must reject every plan and
  // the greedy metric cannot move.
  TeacherConfig teacher;
  teacher.iterations = 2;
  teacher.learn_passes = 0;
  ExperiencePool pool;
  auto stats = rejoin_.RefineWithTeacher(queries_, teacher, Beam4(), &pool);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->size(), 2u);
  EXPECT_GE((*stats)[0].new_plans, 1);
  EXPECT_EQ((*stats)[1].new_plans, 0);
  EXPECT_EQ((*stats)[0].greedy_mean_cost, (*stats)[1].greedy_mean_cost);
  EXPECT_FALSE((*stats)[0].rolled_back);
  EXPECT_FALSE((*stats)[1].rolled_back);

  // A later refinement against the same (still frozen) policy and pool
  // starts from full knowledge: nothing new in any iteration.
  auto again = rejoin_.RefineWithTeacher(queries_, teacher, Beam4(), &pool);
  ASSERT_TRUE(again.ok());
  for (const TeacherIterationStats& row : *again) {
    EXPECT_EQ(row.new_plans, 0);
    EXPECT_EQ(row.greedy_mean_cost, (*stats)[0].greedy_mean_cost);
  }
}

// The loop scores each replayed demo's plan once, and nothing while the
// teacher searches.
TEST_F(TeacherLoopTest, ScoresOncePerReplayedDemo) {
  TeacherConfig teacher;
  teacher.iterations = 3;
  ExperiencePool pool;
  const int trained = rejoin_.reward.calls;
  EXPECT_EQ(trained, 48);  // One score per training episode.
  auto stats = rejoin_.RefineWithTeacher(queries_, teacher, Beam4(), &pool);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  int demos = 0;
  for (const TeacherIterationStats& row : *stats) demos += row.demos;
  EXPECT_EQ(demos, 3 * static_cast<int>(queries_.size()));
  EXPECT_EQ(rejoin_.reward.calls - trained, demos);
  EXPECT_EQ(rejoin_.scores_during_search, 0);
}

TEST_F(TeacherLoopTest, DeterministicAcrossIdenticalTrainers) {
  // Two trainers built and refined identically must agree bit-for-bit:
  // same per-iteration stats, same final weights. (The loop is serial and
  // never consumes the trainer's sampling streams.)
  auto run = [this](std::string* weights_out) {
    RejoinSetup rejoin(&featurizer_);
    rejoin.trainer.Train(queries_, 48);
    TeacherConfig teacher;
    teacher.iterations = 3;
    ExperiencePool pool;
    auto stats = rejoin.RefineWithTeacher(queries_, teacher, Beam4(), &pool);
    HFQ_CHECK(stats.ok());
    std::ostringstream weights;
    HFQ_CHECK(rejoin.trainer.agent().Save(weights).ok());
    *weights_out = weights.str();
    return *stats;
  };
  std::string weights_a, weights_b;
  std::vector<TeacherIterationStats> a = run(&weights_a);
  std::vector<TeacherIterationStats> b = run(&weights_b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].teacher_mean_cost, b[i].teacher_mean_cost) << i;
    EXPECT_EQ(a[i].greedy_mean_cost, b[i].greedy_mean_cost) << i;
    EXPECT_EQ(a[i].new_plans, b[i].new_plans) << i;
    EXPECT_EQ(a[i].demos, b[i].demos) << i;
    EXPECT_EQ(a[i].student_loss, b[i].student_loss) << i;
    EXPECT_EQ(a[i].rolled_back, b[i].rolled_back) << i;
  }
  EXPECT_EQ(weights_a, weights_b);
}

TEST_F(TeacherLoopTest, PoolCheckpointRoundTripsAndResumes) {
  TeacherConfig teacher;
  teacher.iterations = 1;
  teacher.learn_passes = 0;  // Frozen policy: discoveries are reproducible.
  ExperiencePool pool;
  auto stats = rejoin_.RefineWithTeacher(queries_, teacher, Beam4(), &pool);
  ASSERT_TRUE(stats.ok());
  ASSERT_GE(pool.size(), 1u);

  std::ostringstream saved;
  ASSERT_TRUE(pool.Save(saved).ok());
  std::istringstream in(saved.str());
  auto loaded = ExperiencePool::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::ostringstream resaved;
  ASSERT_TRUE(loaded->Save(resaved).ok());
  EXPECT_EQ(saved.str(), resaved.str());

  // Resuming against the restored checkpoint: the frozen policy's searches
  // only rediscover plans the pool already holds.
  auto resumed =
      rejoin_.RefineWithTeacher(queries_, teacher, Beam4(), &*loaded);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ((*resumed)[0].new_plans, 0);
  EXPECT_EQ(loaded->size(), pool.size());
}

std::vector<Matrix> CopyOf(const std::vector<Matrix*>& params) {
  std::vector<Matrix> copy;
  for (const Matrix* p : params) copy.push_back(*p);
  return copy;
}

// Whether every matrix of `params` holds exactly the bytes of `want`.
bool SameWeights(const std::vector<Matrix*>& params,
                 const std::vector<Matrix>& want) {
  if (params.size() != want.size()) return false;
  for (size_t i = 0; i < params.size(); ++i) {
    if (!params[i]->SameShape(want[i]) ||
        std::memcmp(params[i]->data(), want[i].data(),
                    static_cast<size_t>(want[i].size()) * sizeof(double)) !=
            0) {
      return false;
    }
  }
  return true;
}

// A student that keeps a copy of the weights its last Learn pass left.
class RecordingStudent : public TeacherStudent {
 public:
  explicit RecordingStudent(TeacherStudent* inner) : inner_(inner) {}
  double Learn(const std::vector<TeacherDemo>& demos) override {
    const double loss = inner_->Learn(demos);
    learned = CopyOf(inner_->Params());
    return loss;
  }
  std::vector<Matrix*> Params() override { return inner_->Params(); }

  std::vector<Matrix> learned;

 private:
  TeacherStudent* inner_;
};

// Runs one-iteration refinements until one rolls back, and checks that
// the rollback restored every parameter matrix to the bytes it held
// before the iteration, although learning had moved them; a kept
// iteration keeps what learning left. Returns the call that rolled back,
// or -1.
int RefineUntilRollback(RejoinSetup* rejoin, const std::vector<Query>& queries,
                        const FrozenPolicy* policy, TeacherStudent* inner,
                        std::function<double(size_t, const Episode&, double)>
                            demo_target) {
  RecordingStudent student(inner);
  TeacherConfig teacher;
  teacher.iterations = 1;
  SearchConfig beam;
  beam.mode = SearchMode::kBeam;
  beam.beam_width = 4;
  ExperiencePool pool;
  for (int call = 0; call < 8; ++call) {
    const std::vector<Matrix> before = CopyOf(student.Params());
    auto stats = rejoin->RefineStudent(queries, teacher, beam, &pool, policy,
                                       &student, demo_target);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (!stats.ok()) return -1;
    if ((*stats)[0].rolled_back) {
      EXPECT_TRUE(SameWeights(student.Params(), before)) << "call " << call;
      // Learning had moved the weights the rollback undid.
      EXPECT_FALSE(SameWeights(student.Params(), student.learned));
      return call;
    }
    EXPECT_TRUE(SameWeights(student.Params(), student.learned))
        << "call " << call;
  }
  return -1;
}

TEST_F(TeacherLoopTest, RollbackRestoresAgentWeightsBitForBit) {
  AgentPolicy policy(&rejoin_.trainer.agent());
  AgentTeacherStudent student(&rejoin_.trainer.agent());
  // Deterministic: this fixture's agent rolls back within 8 calls.
  EXPECT_GE(RefineUntilRollback(&rejoin_, queries_, &policy, &student,
                                nullptr),
            0);
}

TEST_F(TeacherLoopTest, RollbackRestoresPredictorWeightsBitForBit) {
  // A reward predictor over the same env, pre-trained on the log cost of
  // random complete plans of the workload.
  FullPipelineEnv& env = rejoin_.env;
  RewardPredictorConfig config;
  config.hidden_dims = {32, 32};
  RewardPredictor predictor(static_cast<int>(env.state_dim()),
                            static_cast<int>(env.action_dim()), config,
                            /*seed=*/77);
  Rng rng(78);
  for (int round = 0; round < 4; ++round) {
    for (const Query& q : queries_) {
      env.SetQuery(&q);
      env.Reset();
      std::vector<OutcomeExample> episode;
      while (!env.Done()) {
        OutcomeExample example;
        example.state = env.StateVector();
        std::vector<int> valid;
        const std::vector<bool> mask = env.ActionMask();
        for (size_t a = 0; a < mask.size(); ++a) {
          if (mask[a]) valid.push_back(static_cast<int>(a));
        }
        example.action = rng.Choice(valid);
        env.Step(example.action);
        episode.push_back(std::move(example));
      }
      const double target = std::log10(std::max(1.0, env.FinalCost()));
      for (OutcomeExample& example : episode) {
        example.target = target;
        predictor.AddExample(std::move(example));
      }
    }
  }
  predictor.TrainSteps(20);
  PredictorPolicy policy(&predictor);
  PredictorTeacherStudent student(&predictor, /*train_steps=*/8);
  // Deterministic: this predictor rolls back within 8 calls.
  EXPECT_GE(RefineUntilRollback(
                &rejoin_, queries_, &policy, &student,
                [](size_t, const Episode&, double final_cost) {
                  return std::log10(std::max(1.0, final_cost));
                }),
            0);
}

// ---- Facade wiring -------------------------------------------------------

// A facade configuration small enough that training a strategy takes well
// under a second on the shared 0.05-scale engine (mirrors hands_free_test).
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

// Query names embed the seed.
std::vector<Query> TinyWorkload(int count, int num_relations, uint64_t seed) {
  WorkloadGenerator gen(&testing::SharedEngine().catalog(), seed);
  std::vector<Query> workload;
  for (int i = 0; i < count; ++i) {
    auto q = gen.GenerateQuery(num_relations, "teach_s" + std::to_string(seed) +
                                                  "_q" + std::to_string(i));
    HFQ_CHECK(q.ok());
    workload.push_back(std::move(*q));
  }
  return workload;
}

TEST(TeacherFacadeTest, RefineRequiresTrainedModel) {
  HandsFreeOptimizer optimizer(&testing::SharedEngine(),
                               TinyConfig(TrainingStrategy::
                                              kCostModelBootstrapping));
  TeacherConfig teacher;
  teacher.iterations = 1;
  Status status = optimizer.RefineWithTeacher(TinyWorkload(2, 3, 500),
                                              teacher);
  EXPECT_FALSE(status.ok());
}

TEST(TeacherFacadeTest, RefineAppendsStatsAndKeepsGreedyNonWorse) {
  HandsFreeOptimizer optimizer(&testing::SharedEngine(),
                               TinyConfig(TrainingStrategy::
                                              kCostModelBootstrapping));
  std::vector<Query> workload = TinyWorkload(4, 4, 501);
  ASSERT_TRUE(optimizer.Train(workload).ok());
  EXPECT_TRUE(optimizer.teacher_stats().empty());

  TeacherConfig teacher;
  teacher.iterations = 2;
  ASSERT_TRUE(optimizer.RefineWithTeacher(workload, teacher).ok());
  ASSERT_EQ(optimizer.teacher_stats().size(), 2u);
  EXPECT_LE(optimizer.teacher_stats()[1].greedy_mean_cost,
            optimizer.teacher_stats()[0].greedy_mean_cost);
  ASSERT_NE(optimizer.teacher_pool(), nullptr);
  EXPECT_GE(optimizer.teacher_pool()->size(), 1u);

  // Stats append and the pool persists across calls.
  ASSERT_TRUE(optimizer.RefineWithTeacher(workload, teacher).ok());
  ASSERT_EQ(optimizer.teacher_stats().size(), 4u);
  EXPECT_LE(optimizer.teacher_stats()[3].greedy_mean_cost,
            optimizer.teacher_stats()[1].greedy_mean_cost + 1e-12);

  // Refinement never breaks planning.
  for (const Query& q : workload) {
    EXPECT_TRUE(optimizer.Optimize(q).ok());
  }
}

TEST(TeacherFacadeTest, TrainRunsTeacherWhenConfigured) {
  HandsFreeConfig config =
      TinyConfig(TrainingStrategy::kCostModelBootstrapping);
  config.teacher.iterations = 2;
  HandsFreeOptimizer optimizer(&testing::SharedEngine(), config);
  ASSERT_TRUE(optimizer.Train(TinyWorkload(4, 4, 502)).ok());
  EXPECT_EQ(optimizer.teacher_stats().size(), 2u);
}

TEST(TeacherFacadeTest, PredictorStudentRefinesLfdStrategy) {
  HandsFreeOptimizer optimizer(
      &testing::SharedEngine(),
      TinyConfig(TrainingStrategy::kLearningFromDemonstration));
  std::vector<Query> workload = TinyWorkload(3, 4, 503);
  ASSERT_TRUE(optimizer.Train(workload).ok());
  TeacherConfig teacher;
  teacher.iterations = 2;
  ASSERT_TRUE(optimizer.RefineWithTeacher(workload, teacher).ok());
  ASSERT_EQ(optimizer.teacher_stats().size(), 2u);
  EXPECT_LE(optimizer.teacher_stats()[1].greedy_mean_cost,
            optimizer.teacher_stats()[0].greedy_mean_cost);
  for (const Query& q : workload) {
    EXPECT_TRUE(optimizer.Optimize(q).ok());
  }
}

}  // namespace
}  // namespace hfq
