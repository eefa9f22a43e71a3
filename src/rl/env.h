// The reinforcement-learning environment interface (states and masked
// discrete actions) of the full-pipeline MDP (core/full_env.h), whose
// join-order stage alone is ReJOIN's MDP, plus the branchable extension
// (SearchEnv) that plan-time search (src/search) builds on. An episode
// builds a plan and nothing more: the learners that train on a reward score
// the finished episode themselves (core/pg_trainer.h, rl/teacher_loop.h),
// so search, serving and evaluation never pay for one.
#ifndef HFQ_RL_ENV_H_
#define HFQ_RL_ENV_H_

#include <memory>
#include <vector>

namespace hfq {

/// A fixed-dimensional episodic environment with per-state action masking.
/// Lifecycle: Reset() -> [StateVector/ActionMask -> Step(a)]* until
/// Done().
class Environment {
 public:
  virtual ~Environment() = default;

  /// Begins a new episode (the concrete env decides what "new" means, e.g.
  /// the next query of a workload).
  virtual void Reset() = 0;

  /// Dimensionality of StateVector().
  virtual int state_dim() const = 0;

  /// Size of the (fixed) action space; invalid actions are masked.
  virtual int action_dim() const = 0;

  /// Current state featurization.
  virtual std::vector<double> StateVector() const = 0;

  /// mask[a] == true iff action a is currently selectable. At least one
  /// action must be valid unless the episode is done.
  virtual std::vector<bool> ActionMask() const = 0;

  /// Applies action `a` (must be valid); Done() tells whether the episode
  /// ended.
  virtual void Step(int action) = 0;

  /// True once the episode has terminated.
  virtual bool Done() const = 0;
};

/// An Environment that plan-time search can branch. Beyond the episodic
/// contract above, a SearchEnv can fork the in-flight episode prefix
/// (CloneSearch) so a searcher may expand several continuations of the
/// same partial plan, and it scores its finished episode with a
/// minimization objective (FinalCost) so different rollouts of one query
/// are comparable. Reset() restarts the *current* query from scratch,
/// which is how multi-rollout searchers (best-of-K) re-run an episode.
class SearchEnv : public Environment {
 public:
  /// Deep copy of this env including the in-flight episode state (same
  /// query, same partial-plan prefix). Collaborators (featurizers, cost
  /// models) are shared, not copied; the clone is an
  /// independent single-threaded object on top of the thread-safe shared
  /// substrate, so clones may step on different threads.
  virtual std::unique_ptr<SearchEnv> CloneSearch() const = 0;

  /// Scalar score of the finished episode, lower is better (valid once
  /// Done()). Concrete envs define the unit: the full-pipeline env reports
  /// the final plan's cost-model cost.
  virtual double FinalCost() const = 0;

  /// Pool-reuse hook: overwrite this env's in-flight episode state with a
  /// copy of `other`'s, reusing this object's existing allocations where
  /// possible, and return true — or return false when `other` is not a
  /// compatible env (different concrete type or different shared
  /// collaborators), in which case this env is left unchanged and the
  /// caller must fall back to CloneSearch(). Lets searchers recycle env
  /// objects from a free list instead of allocating a fresh deep clone per
  /// expanded node. The default declines, so the hook is strictly an
  /// optimization: semantics always match CloneSearch().
  virtual bool TryCopySearchStateFrom(const SearchEnv& other) {
    (void)other;
    return false;
  }
};

}  // namespace hfq

#endif  // HFQ_RL_ENV_H_
