// The search-as-teacher refinement loop (Balsa-style, and the "learning
// from the optimizer's own search" idea of the paper's Section 5): each
// iteration freezes the current policy, runs a plan-time search over the
// training workload to discover cheap plans, folds every discovery into a
// cross-iteration deduplicated ExperiencePool, and trains the student on
// the cheapest known plan per query — as behaviour-cloning demonstrations
// and value/reward regression targets. Greedy inference is re-evaluated
// after every iteration and, by default, weights only survive an iteration
// that did not make greedy worse, so the reported greedy mean cost is
// non-increasing by construction.
//
// The loop is search-strategy agnostic: the teacher search arrives as an
// injected callable (TeacherSearchFn), so this module depends only on the
// rl/ layer while src/search (which depends on rl/) supplies the actual
// searchers through src/core.
#ifndef HFQ_RL_TEACHER_LOOP_H_
#define HFQ_RL_TEACHER_LOOP_H_

#include <functional>
#include <vector>

#include "rl/env.h"
#include "rl/experience_pool.h"
#include "rl/policy_gradient.h"
#include "rl/reward_predictor.h"
#include "rl/search_context.h"
#include "rl/trajectory.h"
#include "util/status.h"

namespace hfq {

/// Knobs of one RunTeacherLoop call.
struct TeacherConfig {
  TeacherConfig() {}
  /// Number of freeze-search-train iterations; <= 0 disables the loop.
  int iterations = 0;
  /// Student Learn() passes over the demonstration set per iteration.
  int learn_passes = 4;
  /// For predictor students: TrainSteps minibatches per Learn() pass.
  int predictor_steps = 32;
  /// Keep the best-greedy weights: when an iteration ends with a worse
  /// greedy mean cost than the best seen, restore the snapshot instead of
  /// keeping the regression (makes the per-iteration greedy mean cost
  /// non-increasing by construction).
  bool keep_best_weights = true;
};

/// One replayed teacher demonstration: the cheapest known plan of one
/// query, re-executed on the env so the student sees real transitions.
struct TeacherDemo {
  Episode episode;
  uint64_t fingerprint = 0;
  /// The env's FinalCost of the replayed plan.
  double final_cost = 0.0;
  /// Regression target for value/reward heads (see TeacherLoopTask).
  double target = 0.0;
};

/// The trainee side of the loop: anything that can learn from replayed
/// demonstrations and expose its trainable weights.
class TeacherStudent {
 public:
  virtual ~TeacherStudent() = default;

  /// One training pass over the demonstration set; returns a diagnostic
  /// loss. Called learn_passes times per iteration.
  virtual double Learn(const std::vector<TeacherDemo>& demos) = 0;

  /// Every trainable parameter matrix, in a fixed order. keep_best_weights
  /// copies them as its snapshot and copies the snapshot back to roll an
  /// iteration back. (Optimizer moments are not restored; greedy
  /// evaluation depends only on weights, so rollback still pins the
  /// reported metric.)
  virtual std::vector<Matrix*> Params() = 0;
};

/// TeacherStudent over a PolicyGradientAgent: demonstrations become
/// behaviour-cloning (state, action) pairs for the policy net and
/// return-to-go regression targets for the value head.
class AgentTeacherStudent : public TeacherStudent {
 public:
  /// `agent` must outlive this object.
  explicit AgentTeacherStudent(PolicyGradientAgent* agent);

  double Learn(const std::vector<TeacherDemo>& demos) override;
  /// The policy net's parameters, then the value net's.
  std::vector<Matrix*> Params() override;

 private:
  PolicyGradientAgent* agent_;
};

/// TeacherStudent over a RewardPredictor: each demonstration transition
/// becomes an expert OutcomeExample with the demo's target as the outcome,
/// inserted via AddExampleUnique so re-offered demonstrations never
/// overweight replay sampling.
class PredictorTeacherStudent : public TeacherStudent {
 public:
  /// `predictor` must outlive this object.
  PredictorTeacherStudent(RewardPredictor* predictor, int train_steps);

  double Learn(const std::vector<TeacherDemo>& demos) override;
  std::vector<Matrix*> Params() override;

 private:
  RewardPredictor* predictor_;
  int train_steps_;
};

/// What one teacher search of one query discovered.
struct TeacherSearchOutcome {
  std::vector<int> actions;
  double cost = 0.0;
};

/// Runs a plan-time search of the env's current query against the frozen
/// policy and returns the winning action sequence plus its FinalCost.
using TeacherSearchFn = std::function<Result<TeacherSearchOutcome>(SearchEnv*)>;

/// Everything RunTeacherLoop operates on. All raw pointers are borrowed and
/// must outlive the call.
struct TeacherLoopTask {
  /// The training env; the loop drives it single-threaded.
  SearchEnv* env = nullptr;
  size_t num_queries = 0;
  /// Points `env` at workload query i and returns that query's structural
  /// fingerprint (the experience-pool key).
  std::function<uint64_t(size_t)> select_query;
  TeacherSearchFn search;
  /// Read-only view of the student's current weights, used for the
  /// per-iteration greedy evaluation. Must stay coherent with `student`
  /// (i.e. wrap the same underlying model).
  const FrozenPolicy* policy = nullptr;
  TeacherStudent* student = nullptr;
  /// Cross-iteration plan store; the caller owns it so it can persist and
  /// reuse discoveries across RunTeacherLoop calls.
  ExperiencePool* pool = nullptr;
  /// Optional reward of the replayed plan of query i — the learner's
  /// reward signal applied to the env's finished plan. Called once per
  /// replayed demo, right after the replay, while `env` is Done() at that
  /// plan; the score becomes the demo's last transition's reward, which
  /// value heads regress. Never called during the teacher's search. Unset,
  /// replayed transitions carry no reward (students that learn from
  /// `demo_target` alone need none).
  std::function<double(size_t)> demo_reward;
  /// Optional regression target for demo (query i, replayed episode,
  /// final cost) — called after demo_reward, while `env` is still Done()
  /// at the replayed plan, so implementations may inspect env outputs
  /// (e.g. the final physical plan). Defaults to the negated episode
  /// return (lower is better, like SearchEnv::FinalCost).
  std::function<double(size_t, const Episode&, double)> demo_target;
};

/// Per-iteration diagnostics of the loop.
struct TeacherIterationStats {
  int iteration = 0;
  /// Mean teacher-search FinalCost over the workload this iteration.
  double teacher_mean_cost = 0.0;
  /// Mean greedy FinalCost over the workload *after* this iteration's
  /// training (post-rollback when keep_best_weights kicked in) — the
  /// loop's headline metric, non-increasing across iterations.
  double greedy_mean_cost = 0.0;
  /// Plans this iteration's searches added to the pool (not seen before).
  int new_plans = 0;
  /// Demonstrations (best plan per query) the student trained on.
  int demos = 0;
  /// Diagnostic loss of the last Learn() pass.
  double student_loss = 0.0;
  /// Whether keep_best_weights restored the previous best snapshot.
  bool rolled_back = false;
};

/// Runs `config.iterations` freeze-search-train iterations; returns one
/// stats row per iteration (empty when iterations <= 0). Fully serial and
/// deterministic: same task state + config in, bit-identical weights and
/// stats out, independent of any rollout-worker configuration.
Result<std::vector<TeacherIterationStats>> RunTeacherLoop(
    const TeacherLoopTask& task, const TeacherConfig& config);

}  // namespace hfq

#endif  // HFQ_RL_TEACHER_LOOP_H_
