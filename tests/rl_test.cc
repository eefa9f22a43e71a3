// Tests for src/rl: the policy-gradient agent and reward predictor must
// solve small closed-form tasks; replay buffer and schedules behave.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>

#include "nn/layer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "rl/env.h"
#include "rl/experience_pool.h"
#include "rl/policy_gradient.h"
#include "rl/replay.h"
#include "rl/reward_predictor.h"
#include "rl/schedule.h"
#include "util/thread_pool.h"

namespace hfq {
namespace {

// The toy envs report their terminal reward to the test's episode loop
// (the Environment interface itself carries no reward).
class ToyEnv : public Environment {
 public:
  double reward() const { return reward_; }

 protected:
  double reward_ = 0.0;
};

// A 4-armed bandit: arm 2 pays 1.0, others pay 0.1. One-step episodes.
class BanditEnv : public ToyEnv {
 public:
  void Reset() override { done_ = false; }
  int state_dim() const override { return 2; }
  int action_dim() const override { return 4; }
  std::vector<double> StateVector() const override { return {1.0, 0.0}; }
  std::vector<bool> ActionMask() const override {
    return {true, true, true, true};
  }
  void Step(int action) override {
    done_ = true;
    reward_ = action == 2 ? 1.0 : 0.1;
  }
  bool Done() const override { return done_; }

 private:
  bool done_ = true;
};

// Two-step corridor: action 0 = "left", 1 = "right"; reward 1 only for
// (right, left). Tests credit assignment over multiple steps.
class CorridorEnv : public ToyEnv {
 public:
  void Reset() override {
    step_ = 0;
    reward_ = 0.0;
  }
  int state_dim() const override { return 3; }
  int action_dim() const override { return 2; }
  std::vector<double> StateVector() const override {
    std::vector<double> s(3, 0.0);
    s[static_cast<size_t>(step_)] = 1.0;
    return s;
  }
  std::vector<bool> ActionMask() const override { return {true, true}; }
  void Step(int action) override {
    history_[static_cast<size_t>(step_)] = action;
    ++step_;
    if (step_ == 2) {
      reward_ = (history_[0] == 1 && history_[1] == 0) ? 1.0 : 0.0;
    }
  }
  bool Done() const override { return step_ >= 2; }

 private:
  int step_ = 2;
  int history_[2] = {0, 0};
};

// One sampled episode; the env's terminal reward lands on the last step.
Episode RunEpisode(ToyEnv* env, PolicyGradientAgent* agent) {
  env->Reset();
  Episode episode;
  while (!env->Done()) {
    Transition t;
    t.state = env->StateVector();
    t.mask = env->ActionMask();
    t.action = agent->SampleAction(t.state, t.mask, &t.old_prob);
    env->Step(t.action);
    episode.steps.push_back(std::move(t));
  }
  episode.steps.back().reward = env->reward();
  return episode;
}

// Reference implementation of the *per-sample* policy/value update (two
// forwards + one backward per sample, as Update worked before
// minibatching). The batched Update must produce equivalent parameters.
double ReferencePerSampleUpdate(const std::vector<Episode>& episodes,
                                const PolicyGradientConfig& config,
                                int action_dim, Mlp* policy, Mlp* value,
                                Adam* policy_opt, Adam* value_opt) {
  constexpr double kMaskedLogit = -1e9;
  struct Sample {
    const Transition* t;
    double ret;
  };
  std::vector<Sample> samples;
  for (const auto& ep : episodes) {
    double ret = 0.0;
    std::vector<double> rets(ep.steps.size());
    for (size_t i = ep.steps.size(); i-- > 0;) {
      ret = ep.steps[i].reward + config.gamma * ret;
      rets[i] = ret;
    }
    for (size_t i = 0; i < ep.steps.size(); ++i) {
      samples.push_back({&ep.steps[i], rets[i]});
    }
  }
  auto masked_logits = [&](const Transition& t) {
    Matrix logits = policy->Forward(Matrix::RowVector(t.state));
    for (int a = 0; a < action_dim; ++a) {
      if (!t.mask[static_cast<size_t>(a)]) logits.At(0, a) = kMaskedLogit;
    }
    return logits;
  };

  std::vector<double> advantages(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    Matrix v = value->Forward(Matrix::RowVector(samples[i].t->state));
    advantages[i] = samples[i].ret - v.At(0, 0);
  }
  double mean = 0.0, var = 0.0;
  for (double a : advantages) mean += a;
  mean /= static_cast<double>(advantages.size());
  for (double a : advantages) var += (a - mean) * (a - mean);
  var /= static_cast<double>(advantages.size());
  double stddev = std::sqrt(std::max(var, 1e-12));
  for (double& a : advantages) a = (a - mean) / stddev;

  const int epochs = config.use_ppo_clip ? config.ppo_epochs : 1;
  double last_loss = 0.0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    double total_loss = 0.0;
    policy->ZeroGrads();
    for (size_t i = 0; i < samples.size(); ++i) {
      const Transition& t = *samples[i].t;
      Matrix logits = masked_logits(t);
      Matrix probs = Softmax(logits);
      const double p = std::max(probs.At(0, t.action), 1e-12);
      double weight;
      if (config.use_ppo_clip) {
        const double ratio = p / std::max(t.old_prob, 1e-12);
        const double adv = advantages[i];
        const double clipped = std::clamp(ratio, 1.0 - config.clip_epsilon,
                                          1.0 + config.clip_epsilon);
        const bool active = ratio * adv <= clipped * adv;
        weight = active ? adv * ratio : 0.0;
        total_loss += -std::min(ratio * adv, clipped * adv);
      } else {
        weight = advantages[i];
        total_loss += -std::log(p) * advantages[i];
      }
      Matrix grad(1, action_dim);
      for (int a = 0; a < action_dim; ++a) {
        double g = probs.At(0, a) - (a == t.action ? 1.0 : 0.0);
        grad.At(0, a) = weight * g / static_cast<double>(samples.size());
      }
      if (config.entropy_coef > 0.0) {
        Matrix ent_grad;
        SoftmaxEntropy(logits, config.entropy_coef, &ent_grad);
        for (int a = 0; a < action_dim; ++a) {
          if (t.mask[static_cast<size_t>(a)]) {
            grad.At(0, a) +=
                ent_grad.At(0, a) / static_cast<double>(samples.size());
          }
        }
      }
      (void)policy->Forward(Matrix::RowVector(t.state));
      policy->Backward(grad);
    }
    ClipGradientsByGlobalNorm(policy->Grads(), config.max_grad_norm);
    policy_opt->Step(policy->Params(), policy->Grads());
    last_loss = total_loss / static_cast<double>(samples.size());
  }

  value->ZeroGrads();
  for (const auto& s : samples) {
    Matrix pred = value->Forward(Matrix::RowVector(s.t->state));
    Matrix target = Matrix::Constant(1, 1, s.ret);
    Matrix grad;
    MseLoss(pred, target, &grad);
    grad.Scale(1.0 / static_cast<double>(samples.size()));
    value->Backward(grad);
  }
  ClipGradientsByGlobalNorm(value->Grads(), config.max_grad_norm);
  value_opt->Step(value->Params(), value->Grads());
  return last_loss;
}

void ExpectParamsNear(Mlp& got, Mlp& want, double tol) {
  auto gp = got.Params();
  auto wp = want.Params();
  ASSERT_EQ(gp.size(), wp.size());
  for (size_t p = 0; p < gp.size(); ++p) {
    ASSERT_TRUE(gp[p]->SameShape(*wp[p]));
    for (int64_t k = 0; k < gp[p]->size(); ++k) {
      EXPECT_NEAR(gp[p]->data()[k], wp[p]->data()[k], tol)
          << "param " << p << " index " << k;
    }
  }
}

// Episodes with uneven lengths, partial masks, and sampled old_probs —
// exercises the PPO-clip + entropy path of the batched Update.
std::vector<Episode> MakeSyntheticEpisodes(PolicyGradientAgent* agent,
                                           int state_dim, int num_episodes,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<Episode> episodes;
  for (int e = 0; e < num_episodes; ++e) {
    Episode ep;
    int len = 1 + e % 3;
    for (int s = 0; s < len; ++s) {
      Transition t;
      t.state.resize(static_cast<size_t>(state_dim));
      for (auto& v : t.state) v = rng.Normal();
      t.mask.assign(static_cast<size_t>(agent->action_dim()), true);
      if (e % 2 == 0) t.mask[1] = false;  // Some masked-out actions.
      t.action = agent->SampleAction(t.state, t.mask, &t.old_prob);
      t.reward = s + 1 == len ? rng.Uniform(-1.0, 1.0) : 0.0;
      ep.steps.push_back(std::move(t));
    }
    episodes.push_back(std::move(ep));
  }
  return episodes;
}

TEST(PolicyGradientTest, BatchedUpdateMatchesPerSampleReferencePpo) {
  PolicyGradientConfig config;
  config.hidden_dims = {12};
  ASSERT_TRUE(config.use_ppo_clip);
  ASSERT_GT(config.entropy_coef, 0.0);
  PolicyGradientAgent agent(3, 4, config, 21);
  std::vector<Episode> episodes = MakeSyntheticEpisodes(&agent, 3, 5, 77);

  Mlp ref_policy = agent.policy_net();
  Mlp ref_value = agent.value_net();
  Adam ref_popt(config.policy_lr);
  Adam ref_vopt(config.value_lr);
  double ref_loss = ReferencePerSampleUpdate(
      episodes, config, 4, &ref_policy, &ref_value, &ref_popt, &ref_vopt);
  double loss = agent.Update(episodes);

  EXPECT_NEAR(loss, ref_loss, 1e-9);
  ExpectParamsNear(agent.policy_net(), ref_policy, 1e-8);
  ExpectParamsNear(agent.value_net(), ref_value, 1e-8);
}

TEST(PolicyGradientTest, BatchedUpdateMatchesPerSampleReferenceVanilla) {
  PolicyGradientConfig config;
  config.hidden_dims = {10};
  config.use_ppo_clip = false;
  config.entropy_coef = 0.0;
  PolicyGradientAgent agent(2, 3, config, 23);
  std::vector<Episode> episodes = MakeSyntheticEpisodes(&agent, 2, 6, 79);

  Mlp ref_policy = agent.policy_net();
  Mlp ref_value = agent.value_net();
  Adam ref_popt(config.policy_lr);
  Adam ref_vopt(config.value_lr);
  double ref_loss = ReferencePerSampleUpdate(
      episodes, config, 3, &ref_policy, &ref_value, &ref_popt, &ref_vopt);
  double loss = agent.Update(episodes);

  EXPECT_NEAR(loss, ref_loss, 1e-9);
  ExpectParamsNear(agent.policy_net(), ref_policy, 1e-8);
  ExpectParamsNear(agent.value_net(), ref_value, 1e-8);
}

TEST(PolicyGradientTest, BatchedBehaviourCloneMatchesPerSampleReference) {
  constexpr double kMaskedLogit = -1e9;
  PolicyGradientConfig config;
  config.hidden_dims = {8};
  PolicyGradientAgent agent(2, 3, config, 25);
  std::vector<Transition> batch;
  Rng rng(81);
  for (int i = 0; i < 7; ++i) {
    Transition t;
    t.state = {rng.Normal(), rng.Normal()};
    t.mask = {true, i % 3 != 0, true};
    t.action = t.mask[1] ? i % 3 : 2 * (i % 2);  // Always a valid action.
    batch.push_back(std::move(t));
  }

  // Per-sample reference: two forwards + one backward per pair.
  Mlp ref_policy = agent.policy_net();
  Adam ref_opt(config.policy_lr);
  double ref_loss = 0.0;
  ref_policy.ZeroGrads();
  for (const auto& t : batch) {
    Matrix logits = ref_policy.Forward(Matrix::RowVector(t.state));
    for (int a = 0; a < 3; ++a) {
      if (!t.mask[static_cast<size_t>(a)]) logits.At(0, a) = kMaskedLogit;
    }
    Matrix probs = Softmax(logits);
    ref_loss += -std::log(std::max(probs.At(0, t.action), 1e-12));
    Matrix grad(1, 3);
    for (int a = 0; a < 3; ++a) {
      grad.At(0, a) = (probs.At(0, a) - (a == t.action ? 1.0 : 0.0)) /
                      static_cast<double>(batch.size());
    }
    (void)ref_policy.Forward(Matrix::RowVector(t.state));
    ref_policy.Backward(grad);
  }
  ClipGradientsByGlobalNorm(ref_policy.Grads(), config.max_grad_norm);
  ref_opt.Step(ref_policy.Params(), ref_policy.Grads());
  ref_loss /= static_cast<double>(batch.size());

  double loss = agent.BehaviourCloneStep(batch);
  EXPECT_NEAR(loss, ref_loss, 1e-9);
  ExpectParamsNear(agent.policy_net(), ref_policy, 1e-9);
}

TEST(PolicyGradientTest, UpdateIgnoresEmptyEpisodes) {
  PolicyGradientConfig config;
  config.hidden_dims = {4};
  PolicyGradientAgent agent(2, 2, config, 27);
  std::vector<Episode> empty_steps(3);  // Episodes with no transitions.
  EXPECT_EQ(agent.Update({}), 0.0);
  EXPECT_EQ(agent.Update(empty_steps), 0.0);
}

TEST(PolicyGradientTest, SolvesBandit) {
  BanditEnv env;
  PolicyGradientConfig config;
  config.hidden_dims = {16};
  config.policy_lr = 5e-3;
  PolicyGradientAgent agent(env.state_dim(), env.action_dim(), config, 3);
  for (int round = 0; round < 120; ++round) {
    std::vector<Episode> batch;
    for (int e = 0; e < 8; ++e) batch.push_back(RunEpisode(&env, &agent));
    agent.Update(batch);
  }
  env.Reset();
  int greedy = agent.GreedyAction(env.StateVector(), env.ActionMask());
  EXPECT_EQ(greedy, 2);
  auto probs = agent.ActionProbabilities(env.StateVector(), env.ActionMask());
  EXPECT_GT(probs[2], 0.6);
}

TEST(PolicyGradientTest, SolvesCorridor) {
  CorridorEnv env;
  PolicyGradientConfig config;
  config.hidden_dims = {16};
  config.policy_lr = 5e-3;
  PolicyGradientAgent agent(env.state_dim(), env.action_dim(), config, 5);
  for (int round = 0; round < 200; ++round) {
    std::vector<Episode> batch;
    for (int e = 0; e < 8; ++e) batch.push_back(RunEpisode(&env, &agent));
    agent.Update(batch);
  }
  env.Reset();
  int first = agent.GreedyAction(env.StateVector(), env.ActionMask());
  env.Step(first);
  int second = agent.GreedyAction(env.StateVector(), env.ActionMask());
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
}

TEST(PolicyGradientTest, MaskZeroesInvalidActions) {
  PolicyGradientConfig config;
  config.hidden_dims = {8};
  PolicyGradientAgent agent(2, 4, config, 7);
  std::vector<double> state = {0.3, -0.5};
  std::vector<bool> mask = {false, true, false, true};
  auto probs = agent.ActionProbabilities(state, mask);
  EXPECT_EQ(probs[0], 0.0);
  EXPECT_EQ(probs[2], 0.0);
  EXPECT_NEAR(probs[1] + probs[3], 1.0, 1e-9);
  for (int i = 0; i < 50; ++i) {
    int a = agent.SampleAction(state, mask);
    EXPECT_TRUE(a == 1 || a == 3);
  }
  int g = agent.GreedyAction(state, mask);
  EXPECT_TRUE(g == 1 || g == 3);
}

TEST(PolicyGradientTest, BehaviourCloningImitates) {
  PolicyGradientConfig config;
  config.hidden_dims = {16};
  config.policy_lr = 1e-2;
  PolicyGradientAgent agent(2, 3, config, 9);
  // Expert: state (1,0) -> action 0; state (0,1) -> action 2.
  std::vector<Transition> batch;
  for (int i = 0; i < 8; ++i) {
    Transition a;
    a.state = {1.0, 0.0};
    a.mask = {true, true, true};
    a.action = 0;
    batch.push_back(a);
    Transition b;
    b.state = {0.0, 1.0};
    b.mask = {true, true, true};
    b.action = 2;
    batch.push_back(b);
  }
  double first_loss = agent.BehaviourCloneStep(batch);
  double last_loss = first_loss;
  for (int step = 0; step < 150; ++step) {
    last_loss = agent.BehaviourCloneStep(batch);
  }
  EXPECT_LT(last_loss, first_loss * 0.5);
  EXPECT_EQ(agent.GreedyAction({1.0, 0.0}, {true, true, true}), 0);
  EXPECT_EQ(agent.GreedyAction({0.0, 1.0}, {true, true, true}), 2);
}

TEST(PolicyGradientTest, ValueBaselineLearnsReturns) {
  BanditEnv env;
  PolicyGradientConfig config;
  config.hidden_dims = {8};
  PolicyGradientAgent agent(env.state_dim(), env.action_dim(), config, 11);
  for (int round = 0; round < 100; ++round) {
    std::vector<Episode> batch;
    for (int e = 0; e < 8; ++e) batch.push_back(RunEpisode(&env, &agent));
    agent.Update(batch);
  }
  // Once the policy concentrates on the good arm, V(s) -> ~1.0.
  double v = agent.Value({1.0, 0.0});
  EXPECT_GT(v, 0.5);
  EXPECT_LT(v, 1.5);
}

TEST(RewardPredictorTest, LearnsActionOutcomes) {
  RewardPredictorConfig config;
  config.hidden_dims = {16};
  config.lr = 3e-3;
  RewardPredictor predictor(2, 3, config, 13);
  // Outcome: action 0 -> 5.0, action 1 -> 1.0, action 2 -> 3.0.
  Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    int a = static_cast<int>(rng.UniformInt(0, 2));
    double target = a == 0 ? 5.0 : (a == 1 ? 1.0 : 3.0);
    predictor.AddExample(OutcomeExample{{1.0, 0.5}, a, target});
  }
  predictor.TrainSteps(400);
  EXPECT_NEAR(predictor.Predict({1.0, 0.5}, 0), 5.0, 0.5);
  EXPECT_NEAR(predictor.Predict({1.0, 0.5}, 1), 1.0, 0.5);
  EXPECT_NEAR(predictor.Predict({1.0, 0.5}, 2), 3.0, 0.5);
  // Best action = lowest predicted outcome = 1.
  EXPECT_EQ(predictor.SelectAction({1.0, 0.5}, {true, true, true}, 0.0), 1);
  // Mask forces next best.
  EXPECT_EQ(predictor.SelectAction({1.0, 0.5}, {true, false, true}, 0.0), 2);
  EXPECT_LT(predictor.EvaluateError(64), 0.6);
}

TEST(RewardPredictorTest, BatchedTrainingMatchesPerSampleReference) {
  RewardPredictorConfig config;
  config.hidden_dims = {10};
  config.batch_size = 16;
  RewardPredictor predictor(2, 3, config, 31);
  Rng gen(5);
  std::vector<OutcomeExample> examples;
  for (int i = 0; i < 40; ++i) {
    OutcomeExample ex;
    ex.state = {gen.Normal(), gen.Normal()};
    ex.action = static_cast<int>(gen.UniformInt(0, 2));
    ex.target = gen.Uniform(0.0, 4.0);
    ex.from_expert = i % 2 == 0;  // Exercise the margin loss too.
    examples.push_back(ex);
    predictor.AddExample(ex);
  }

  // Snapshot the net and rng, mirror the replay buffer, and run the
  // per-sample reference (one forward + one backward per example).
  Mlp ref_net = predictor.net();
  Rng ref_rng = predictor.rng();
  ReplayBuffer<OutcomeExample> ref_buffer(config.replay_capacity);
  for (const auto& ex : examples) ref_buffer.Add(ex);
  Adam ref_opt(config.lr);
  const int kSteps = 3;
  for (int step = 0; step < kSteps; ++step) {
    auto batch =
        ref_buffer.Sample(&ref_rng, static_cast<size_t>(config.batch_size));
    ref_net.ZeroGrads();
    for (const OutcomeExample* ex : batch) {
      Matrix out = ref_net.Forward(Matrix::RowVector(ex->state));
      double diff = out.At(0, ex->action) - ex->target;
      double g = std::abs(diff) <= config.huber_delta
                     ? diff
                     : (diff > 0 ? config.huber_delta : -config.huber_delta);
      Matrix grad(1, 3);
      grad.At(0, ex->action) = g / static_cast<double>(batch.size());
      if (ex->from_expert && config.margin_weight > 0.0) {
        const double floor = ex->target + config.demonstration_margin;
        const double scale =
            config.margin_weight / (static_cast<double>(batch.size()) * 3.0);
        for (int a = 0; a < 3; ++a) {
          if (a == ex->action) continue;
          if (floor - out.At(0, a) > 0.0) grad.At(0, a) -= scale;
        }
      }
      ref_net.Backward(grad);
    }
    ClipGradientsByGlobalNorm(ref_net.Grads(), config.max_grad_norm);
    ref_opt.Step(ref_net.Params(), ref_net.Grads());
  }

  predictor.TrainSteps(kSteps);
  ExpectParamsNear(predictor.net(), ref_net, 1e-9);
}

TEST(RewardPredictorTest, EpsilonExplores) {
  RewardPredictorConfig config;
  config.hidden_dims = {8};
  RewardPredictor predictor(1, 2, config, 15);
  for (int i = 0; i < 50; ++i) {
    predictor.AddExample(OutcomeExample{{1.0}, 0, 0.0});
    predictor.AddExample(OutcomeExample{{1.0}, 1, 10.0});
  }
  predictor.TrainSteps(200);
  int explored = 0;
  for (int i = 0; i < 200; ++i) {
    if (predictor.SelectAction({1.0}, {true, true}, 1.0) == 1) ++explored;
  }
  EXPECT_GT(explored, 60);  // epsilon=1.0: uniform over both actions.
  EXPECT_EQ(predictor.SelectAction({1.0}, {true, true}, 0.0), 0);
}

TEST(ReplayBufferTest, RingSemantics) {
  ReplayBuffer<int> buffer(3);
  EXPECT_TRUE(buffer.empty());
  buffer.Add(1);
  buffer.Add(2);
  buffer.Add(3);
  EXPECT_EQ(buffer.size(), 3u);
  buffer.Add(4);  // Overwrites oldest.
  EXPECT_EQ(buffer.size(), 3u);
  std::set<int> contents;
  for (size_t i = 0; i < buffer.size(); ++i) contents.insert(buffer.at(i));
  EXPECT_EQ(contents, (std::set<int>{2, 3, 4}));
  Rng rng(1);
  auto sample = buffer.Sample(&rng, 10);
  EXPECT_EQ(sample.size(), 10u);
  buffer.Clear();
  EXPECT_TRUE(buffer.empty());
}

TEST(ScheduleTest, LinearInterpolatesAndClamps) {
  LinearSchedule s(1.0, 0.0, 10);
  EXPECT_DOUBLE_EQ(s.Value(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Value(5), 0.5);
  EXPECT_DOUBLE_EQ(s.Value(10), 0.0);
  EXPECT_DOUBLE_EQ(s.Value(100), 0.0);
  EXPECT_DOUBLE_EQ(s.Value(-5), 1.0);
}

TEST(ScheduleTest, ExponentialDecaysToFloor) {
  ExponentialSchedule s(1.0, 0.5, 0.1);
  EXPECT_DOUBLE_EQ(s.Value(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Value(1), 0.5);
  EXPECT_DOUBLE_EQ(s.Value(2), 0.25);
  EXPECT_DOUBLE_EQ(s.Value(10), 0.1);
}

TEST(ScheduleTest, ExponentialClosedFormMatchesIterativeReference) {
  // The closed form must reproduce the former O(t) multiply loop.
  auto reference = [](double start, double decay, double floor, int64_t t) {
    double v = start;
    for (int64_t i = 0; i < t && v > floor; ++i) v *= decay;
    return std::max(v, floor);
  };
  ExponentialSchedule s(0.9, 0.97, 0.05);
  for (int64_t t : {0, 1, 2, 7, 50, 200, 5000}) {
    EXPECT_NEAR(s.Value(t), reference(0.9, 0.97, 0.05, t), 1e-12)
        << "t=" << t;
  }
  // Negative steps clamp to the start value; the floor still applies.
  EXPECT_DOUBLE_EQ(s.Value(-3), 0.9);
  ExponentialSchedule below_floor(0.2, 0.5, 0.4);
  EXPECT_DOUBLE_EQ(below_floor.Value(0), 0.4);
  EXPECT_DOUBLE_EQ(below_floor.Value(100), 0.4);
  // Large t is O(1) now and saturates at the floor instead of looping.
  ExponentialSchedule slow(1.0, 0.999999, 0.5);
  EXPECT_NEAR(slow.Value(2000000000), 0.5, 1e-12);
}

// Random masked states for the inference-equivalence tests.
std::vector<std::pair<std::vector<double>, std::vector<bool>>> RandomStates(
    int count, int state_dim, int action_dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::vector<double>, std::vector<bool>>> out;
  for (int i = 0; i < count; ++i) {
    std::vector<double> state(static_cast<size_t>(state_dim));
    for (auto& v : state) v = rng.Normal();
    std::vector<bool> mask(static_cast<size_t>(action_dim));
    bool any = false;
    for (size_t a = 0; a < mask.size(); ++a) {
      mask[a] = rng.Bernoulli(0.7);
      any = any || mask[a];
    }
    if (!any) mask[static_cast<size_t>(i) % mask.size()] = true;
    out.emplace_back(std::move(state), std::move(mask));
  }
  return out;
}

TEST(PolicyGradientTest, ConstInferenceMatchesMutatingPathBitForBit) {
  PolicyGradientConfig config;
  config.hidden_dims = {16, 16};
  PolicyGradientAgent a(6, 5, config, 99);
  PolicyGradientAgent b(6, 5, config, 99);  // Identical twin.
  auto states = RandomStates(32, 6, 5, 7);

  MlpWorkspace ws;
  // Greedy + probabilities + value: pure functions of the weights.
  for (const auto& [state, mask] : states) {
    EXPECT_EQ(a.GreedyAction(state, mask), b.GreedyAction(state, mask, &ws));
    std::vector<double> pa = a.ActionProbabilities(state, mask);
    std::vector<double> pb = b.ActionProbabilities(state, mask, &ws);
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
    EXPECT_EQ(a.Value(state), b.Value(state, &ws));
  }
  // Sampling: the const overload driven by the agent's own rng consumes
  // the identical stream, so the sampled actions match exactly.
  for (const auto& [state, mask] : states) {
    double prob_a = 0.0, prob_b = 0.0;
    int action_a = a.SampleAction(state, mask, &prob_a);
    int action_b = b.SampleAction(state, mask, &b.rng(), &ws, &prob_b);
    EXPECT_EQ(action_a, action_b);
    EXPECT_EQ(prob_a, prob_b);
  }
}

TEST(PolicyGradientTest, ConcurrentInferenceOverSharedAgentIsExact) {
  // The tentpole contract: N workers, one frozen agent, per-worker
  // workspaces and rngs — concurrent inference must be race-free and
  // bit-identical to serial answers. Run under TSan in CI.
  PolicyGradientConfig config;
  config.hidden_dims = {32, 32};
  const PolicyGradientAgent agent(10, 8, config, 123);
  auto states = RandomStates(24, 10, 8, 11);

  // Serial reference answers.
  std::vector<int> greedy_ref;
  std::vector<std::vector<double>> probs_ref;
  std::vector<double> value_ref;
  {
    MlpWorkspace ws;
    for (const auto& [state, mask] : states) {
      greedy_ref.push_back(agent.GreedyAction(state, mask, &ws));
      probs_ref.push_back(agent.ActionProbabilities(state, mask, &ws));
      value_ref.push_back(agent.Value(state, &ws));
    }
  }

  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  std::atomic<int> mismatches{0};
  std::vector<std::future<void>> futures;
  for (int w = 0; w < kThreads; ++w) {
    futures.push_back(pool.Submit([&, w] {
      MlpWorkspace ws;
      Rng rng(1000 + static_cast<uint64_t>(w));
      for (int rep = 0; rep < 100; ++rep) {
        for (size_t i = 0; i < states.size(); ++i) {
          const auto& [state, mask] = states[i];
          if (agent.GreedyAction(state, mask, &ws) !=
              greedy_ref[i]) {
            mismatches.fetch_add(1);
          }
          std::vector<double> probs =
              agent.ActionProbabilities(state, mask, &ws);
          for (size_t a = 0; a < probs.size(); ++a) {
            if (probs[a] != probs_ref[i][a]) mismatches.fetch_add(1);
          }
          if (agent.Value(state, &ws) != value_ref[i]) {
            mismatches.fetch_add(1);
          }
          // Sampling with a per-worker rng must return a valid action.
          int sampled = agent.SampleAction(state, mask, &rng, &ws);
          if (!mask[static_cast<size_t>(sampled)]) mismatches.fetch_add(1);
        }
      }
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(RewardPredictorTest, EvaluateErrorNeverPerturbsTraining) {
  // EvaluateError draws from a dedicated eval stream: interleaving it with
  // TrainSteps must leave the trained weights bit-for-bit identical to a
  // run that never evaluated. (The historic bug: evaluation sampled from
  // the training rng_, shifting every later minibatch draw.)
  RewardPredictorConfig config;
  config.hidden_dims = {12};
  config.batch_size = 8;
  RewardPredictor plain(2, 3, config, 404);
  RewardPredictor evaluated(2, 3, config, 404);
  Rng gen(21);
  for (int i = 0; i < 60; ++i) {
    OutcomeExample ex;
    ex.state = {gen.Normal(), gen.Normal()};
    ex.action = static_cast<int>(gen.UniformInt(0, 2));
    ex.target = gen.Uniform(0.0, 3.0);
    ex.from_expert = i % 3 == 0;
    plain.AddExample(ex);
    evaluated.AddExample(ex);
  }
  plain.TrainSteps(6);
  evaluated.TrainSteps(2);
  evaluated.EvaluateError(16);
  evaluated.TrainSteps(1);
  evaluated.EvaluateError(32);
  evaluated.EvaluateError(8);
  evaluated.TrainSteps(3);
  std::ostringstream plain_weights, evaluated_weights;
  ASSERT_TRUE(plain.Save(plain_weights).ok());
  ASSERT_TRUE(evaluated.Save(evaluated_weights).ok());
  EXPECT_EQ(plain_weights.str(), evaluated_weights.str());
}

TEST(RewardPredictorTest, ReportedLossMatchesGradientByFiniteDifference) {
  // The reported loss and the gradient descended must be the same
  // objective: central finite differences of BatchLossAndGradients around
  // each parameter must reproduce the analytic gradient. (The historic
  // bug: the margin term entered the loss unnormalized but the gradient
  // carried margin_weight / (batch * action_dim) — two different
  // objectives, undetectable from training curves alone.)
  RewardPredictorConfig config;
  config.hidden_dims = {4};
  RewardPredictor predictor(2, 3, config, 99);
  std::vector<OutcomeExample> storage;
  Rng gen(17);
  for (int i = 0; i < 5; ++i) {
    OutcomeExample ex;
    ex.state = {gen.Normal(), gen.Normal()};
    ex.action = static_cast<int>(gen.UniformInt(0, 2));
    // Targets far from the initial ~0 predictions keep some examples in
    // the linear Huber regime, and from_expert examples raise the margin
    // floor well above the other actions' outputs so the margin term has
    // active violations — both loss branches are exercised.
    ex.target = gen.Uniform(-2.0, 2.0);
    ex.from_expert = true;
    storage.push_back(std::move(ex));
  }
  std::vector<const OutcomeExample*> batch;
  for (const auto& ex : storage) batch.push_back(&ex);

  predictor.BatchLossAndGradients(batch);
  std::vector<Matrix> analytic;
  for (Matrix* g : predictor.net().Grads()) analytic.push_back(*g);

  const double eps = 1e-6;
  std::vector<Matrix*> params = predictor.net().Params();
  for (size_t p = 0; p < params.size(); ++p) {
    // A few probe entries per parameter matrix keep the test fast.
    const int64_t rows = params[p]->rows(), cols = params[p]->cols();
    for (int64_t probe = 0; probe < std::min<int64_t>(rows * cols, 6);
         ++probe) {
      const int64_t r = probe % rows, c = (probe * 7) % cols;
      const double saved = params[p]->At(r, c);
      params[p]->At(r, c) = saved + eps;
      const double loss_hi = predictor.BatchLossAndGradients(batch);
      params[p]->At(r, c) = saved - eps;
      const double loss_lo = predictor.BatchLossAndGradients(batch);
      params[p]->At(r, c) = saved;
      const double numeric = (loss_hi - loss_lo) / (2.0 * eps);
      EXPECT_NEAR(numeric, analytic[p].At(r, c), 1e-5)
          << "param " << p << " entry (" << r << "," << c << ")";
    }
  }
}

TEST(ReplayBufferTest, AddUniqueRejectsResidentKeysAndFreesOnEviction) {
  ReplayBuffer<int> buffer(2);
  EXPECT_TRUE(buffer.AddUnique(10, /*key=*/100));
  EXPECT_FALSE(buffer.AddUnique(10, /*key=*/100));  // Resident: rejected.
  EXPECT_EQ(buffer.size(), 1u);
  EXPECT_TRUE(buffer.AddUnique(20, /*key=*/200));
  // Capacity 2: this evicts key 100's slot, freeing its key...
  EXPECT_TRUE(buffer.AddUnique(30, /*key=*/300));
  EXPECT_EQ(buffer.size(), 2u);
  // ...so the same key is insertable again (exactly one resident copy).
  EXPECT_TRUE(buffer.AddUnique(10, /*key=*/100));
  EXPECT_FALSE(buffer.AddUnique(10, /*key=*/100));
  // Unkeyed Add coexists with keyed inserts and never blocks a key.
  buffer.Add(40);
  EXPECT_EQ(buffer.size(), 2u);
  buffer.Clear();
  EXPECT_TRUE(buffer.empty());
  EXPECT_TRUE(buffer.AddUnique(10, /*key=*/100));  // Clear frees keys too.
}

TEST(RewardPredictorTest, AddExampleUniqueDeduplicatesIdenticalExamples) {
  RewardPredictorConfig config;
  config.hidden_dims = {4};
  RewardPredictor predictor(2, 2, config, 7);
  OutcomeExample ex;
  ex.state = {0.25, -1.5};
  ex.action = 1;
  ex.target = 2.0;
  ex.from_expert = true;
  EXPECT_TRUE(predictor.AddExampleUnique(ex));
  EXPECT_FALSE(predictor.AddExampleUnique(ex));  // Identical: rejected.
  EXPECT_EQ(predictor.buffer_size(), 1u);
  ex.target = 3.0;  // Any field difference is a different example.
  EXPECT_TRUE(predictor.AddExampleUnique(ex));
  EXPECT_EQ(predictor.buffer_size(), 2u);
}

TEST(ExperiencePoolTest, DedupsBestForAndRoundTrips) {
  ExperiencePool pool;
  EXPECT_TRUE(pool.Add({/*fingerprint=*/1, {0, 2, 1}, 50.0}));
  EXPECT_FALSE(pool.Add({1, {0, 2, 1}, 50.0}));  // Same plan: rejected.
  EXPECT_TRUE(pool.Add({1, {2, 0, 1}, 30.0}));   // Cheaper plan, same query.
  EXPECT_TRUE(pool.Add({1, {1, 0, 2}, 30.0}));   // Cost tie: not best.
  EXPECT_TRUE(pool.Add({2, {3}, 10.0}));
  EXPECT_EQ(pool.size(), 4u);

  const PlanExperience* best1 = pool.BestFor(1);
  ASSERT_NE(best1, nullptr);
  EXPECT_EQ(best1->actions, (std::vector<int>{2, 0, 1}));  // Earliest tie.
  EXPECT_EQ(pool.BestFor(3), nullptr);

  std::vector<const PlanExperience*> best = pool.BestPerQuery();
  ASSERT_EQ(best.size(), 2u);  // First-seen fingerprint order.
  EXPECT_EQ(best[0]->fingerprint, 1u);
  EXPECT_EQ(best[1]->fingerprint, 2u);

  std::ostringstream saved;
  ASSERT_TRUE(pool.Save(saved).ok());
  std::istringstream in(saved.str());
  auto loaded = ExperiencePool::Load(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), pool.size());
  ASSERT_NE(loaded->BestFor(1), nullptr);
  EXPECT_EQ(loaded->BestFor(1)->actions, best1->actions);
  EXPECT_EQ(loaded->BestFor(1)->cost, best1->cost);
  // The rebuilt indexes dedup exactly like the original.
  EXPECT_FALSE(loaded->Add({1, {0, 2, 1}, 50.0}));
  std::ostringstream resaved;
  ASSERT_TRUE(loaded->Save(resaved).ok());
  EXPECT_EQ(saved.str(), resaved.str());

  std::istringstream garbage("not-a-pool 3\n");
  EXPECT_FALSE(ExperiencePool::Load(garbage).ok());
}

TEST(PolicyGradientTest, ValueRegressionStepFitsReturnsWithoutPolicyChange) {
  PolicyGradientConfig config;
  config.hidden_dims = {16};
  PolicyGradientAgent agent(2, 2, config, 55);
  // Two fixed episodes with distinct returns-to-go.
  std::vector<Episode> episodes(2);
  for (int e = 0; e < 2; ++e) {
    for (int s = 0; s < 2; ++s) {
      Transition t;
      t.state = {e == 0 ? 1.0 : -1.0, s == 0 ? 1.0 : 0.0};
      t.mask = {true, true};
      t.action = s % 2;
      t.reward = (s == 1) ? (e == 0 ? 2.0 : -1.0) : 0.0;
      episodes[static_cast<size_t>(e)].steps.push_back(std::move(t));
    }
  }
  std::ostringstream policy_before;
  ASSERT_TRUE(agent.policy_net().Save(policy_before).ok());

  const double first = agent.ValueRegressionStep(episodes);
  double last = first;
  for (int i = 0; i < 200; ++i) last = agent.ValueRegressionStep(episodes);
  EXPECT_LT(last, first);
  EXPECT_LT(last, 0.05);  // Terminal returns are learnable exactly.
  // Returns-to-go targets: V({1,1}) -> 2, V({-1,1}) -> -1.
  EXPECT_NEAR(agent.Value({1.0, 1.0}), 2.0, 0.3);
  EXPECT_NEAR(agent.Value({-1.0, 1.0}), -1.0, 0.3);

  // The policy net is untouched; empty input is a no-op.
  std::ostringstream policy_after;
  ASSERT_TRUE(agent.policy_net().Save(policy_after).ok());
  EXPECT_EQ(policy_before.str(), policy_after.str());
  EXPECT_EQ(agent.ValueRegressionStep({}), 0.0);
}

TEST(RewardPredictorTest, ConstSelectActionMatchesMutatingGreedy) {
  RewardPredictorConfig config;
  config.hidden_dims = {16};
  RewardPredictor predictor(6, 5, config, 77);
  auto states = RandomStates(16, 6, 5, 13);
  MlpWorkspace ws;
  for (const auto& [state, mask] : states) {
    int mutating = predictor.SelectAction(state, mask, /*epsilon=*/0.0);
    int frozen = predictor.SelectAction(state, mask, /*epsilon=*/0.0,
                                        /*rng=*/nullptr, &ws);
    EXPECT_EQ(mutating, frozen);
  }
}

}  // namespace
}  // namespace hfq
