// The frozen-policy surface plan-time search runs on. A FrozenPolicy wraps
// one trained model behind a uniform const interface (greedy action,
// sampled action, per-action probabilities, state value) built on the
// PR 3 thread-safe inference overloads, so a searcher neither knows nor
// cares whether the policy is a PolicyGradientAgent or a RewardPredictor.
// A SearchContext bundles the policy with the per-worker mutable state
// (Rng + MlpWorkspace) one search thread needs.
#ifndef HFQ_RL_SEARCH_CONTEXT_H_
#define HFQ_RL_SEARCH_CONTEXT_H_

#include <memory>
#include <vector>

#include "rl/env.h"
#include "rl/policy_gradient.h"
#include "rl/reward_predictor.h"
#include "util/arena.h"
#include "util/rng.h"

namespace hfq {

/// Read-only view of a trained policy. All methods are const and safe to
/// call from any number of threads against a *frozen* model (no training
/// update in flight), each caller bringing its own Rng/MlpWorkspace.
class FrozenPolicy {
 public:
  virtual ~FrozenPolicy() = default;

  /// The policy's exploitation action — bit-for-bit the action the
  /// wrapped model's own greedy entry point picks (ties broken by lowest
  /// action index, never by Rng state, so repeated calls on a frozen
  /// model are deterministic).
  virtual int Greedy(const std::vector<double>& state,
                     const std::vector<bool>& mask,
                     MlpWorkspace* ws) const = 0;

  /// One exploration sample from the policy distribution.
  virtual int Sample(const std::vector<double>& state,
                     const std::vector<bool>& mask, Rng* rng,
                     MlpWorkspace* ws) const = 0;

  /// Full action distribution (masked entries are exactly 0). Argmax of
  /// this vector with lowest-index tie-breaking equals Greedy().
  virtual std::vector<double> Probabilities(const std::vector<double>& state,
                                            const std::vector<bool>& mask,
                                            MlpWorkspace* ws) const = 0;

  /// Estimated goodness of a (possibly non-terminal) state, higher is
  /// better — the value head that guides beam search. Implementations
  /// without a usable value model may return 0.
  virtual double Value(const std::vector<double>& state,
                       const std::vector<bool>& mask,
                       MlpWorkspace* ws) const = 0;

  /// Batched frontier scoring: the action distribution of every
  /// (state, mask) row in one call. Entry i is bit-identical to
  /// Probabilities(*states[i], *masks[i], ws) — the contract that lets a
  /// searcher batch a whole frontier without changing which plan it picks.
  /// The base implementation loops Probabilities per row (one forward per
  /// row); the built-in policies override it with a single
  /// Mlp::ForwardBatchInto call, which runs at most one minibatch forward
  /// (none when an MlpMemoScope on `ws` already holds every row).
  virtual std::vector<std::vector<double>> ScoreActionsBatch(
      const std::vector<const std::vector<double>*>& states,
      const std::vector<const std::vector<bool>*>& masks,
      MlpWorkspace* ws) const;

  /// Batched value head: entry i is bit-identical to
  /// Value(*states[i], *masks[i], ws). Base implementation loops per row;
  /// built-in policies override with one Mlp::ForwardBatchInto call (at
  /// most one minibatch forward, as above).
  virtual std::vector<double> ValueBatch(
      const std::vector<const std::vector<double>*>& states,
      const std::vector<const std::vector<bool>*>& masks,
      MlpWorkspace* ws) const;
};

/// FrozenPolicy over a PolicyGradientAgent: policy net for actions, the
/// learned value baseline as the value head.
class AgentPolicy : public FrozenPolicy {
 public:
  /// `agent` must outlive the policy and stay frozen while it is in use.
  explicit AgentPolicy(const PolicyGradientAgent* agent);

  int Greedy(const std::vector<double>& state, const std::vector<bool>& mask,
             MlpWorkspace* ws) const override;
  int Sample(const std::vector<double>& state, const std::vector<bool>& mask,
             Rng* rng, MlpWorkspace* ws) const override;
  std::vector<double> Probabilities(const std::vector<double>& state,
                                    const std::vector<bool>& mask,
                                    MlpWorkspace* ws) const override;
  double Value(const std::vector<double>& state,
               const std::vector<bool>& mask,
               MlpWorkspace* ws) const override;
  std::vector<std::vector<double>> ScoreActionsBatch(
      const std::vector<const std::vector<double>*>& states,
      const std::vector<const std::vector<bool>*>& masks,
      MlpWorkspace* ws) const override;
  std::vector<double> ValueBatch(
      const std::vector<const std::vector<double>*>& states,
      const std::vector<const std::vector<bool>*>& masks,
      MlpWorkspace* ws) const override;

 private:
  const PolicyGradientAgent* agent_;
};

/// FrozenPolicy over a RewardPredictor (learning-from-demonstration).
/// The predictor scores actions by predicted outcome, lower is better:
/// Greedy delegates to SelectAction(epsilon=0) — bit-for-bit the LfD
/// inference path — Probabilities is the softmax over negated predicted
/// outcomes (argmax therefore equals Greedy), and Value is the negated
/// best predicted outcome among valid actions.
class PredictorPolicy : public FrozenPolicy {
 public:
  /// `predictor` must outlive the policy and stay frozen while in use.
  explicit PredictorPolicy(const RewardPredictor* predictor);

  int Greedy(const std::vector<double>& state, const std::vector<bool>& mask,
             MlpWorkspace* ws) const override;
  int Sample(const std::vector<double>& state, const std::vector<bool>& mask,
             Rng* rng, MlpWorkspace* ws) const override;
  std::vector<double> Probabilities(const std::vector<double>& state,
                                    const std::vector<bool>& mask,
                                    MlpWorkspace* ws) const override;
  double Value(const std::vector<double>& state,
               const std::vector<bool>& mask,
               MlpWorkspace* ws) const override;
  std::vector<std::vector<double>> ScoreActionsBatch(
      const std::vector<const std::vector<double>*>& states,
      const std::vector<const std::vector<bool>*>& masks,
      MlpWorkspace* ws) const override;
  std::vector<double> ValueBatch(
      const std::vector<const std::vector<double>*>& states,
      const std::vector<const std::vector<bool>*>& masks,
      MlpWorkspace* ws) const override;

 private:
  const RewardPredictor* predictor_;
};

/// A frozen, independently-owned copy of one trained model plus the
/// FrozenPolicy view over it: what a serving layer publishes as an
/// immutable policy generation while the live model keeps training.
/// Exactly one of `agent` / `predictor` is set (matching the strategy the
/// snapshot was taken from); `view` reads whichever one it is. Because the
/// snapshot owns its model outright, training updates to the live model
/// never perturb in-flight inference against a published generation.
struct PolicySnapshot {
  std::unique_ptr<PolicyGradientAgent> agent;
  std::unique_ptr<RewardPredictor> predictor;
  std::unique_ptr<FrozenPolicy> view;
};

/// Reusable per-worker search memory, reset per query instead of freed per
/// node. Holds (a) a bump arena backing plan-prefix chains and other
/// per-candidate scratch, (b) a free list of env objects so expanding a
/// node can recycle a pooled env (SearchEnv::TryCopySearchStateFrom)
/// instead of deep-cloning, and (c) the row-pointer buffers batched
/// frontier forwards assemble into. Single-threaded like MlpWorkspace:
/// one scratch per concurrent search worker.
struct SearchScratch {
  Arena arena;
  /// Idle env objects available for reuse (all from earlier searches).
  std::vector<std::unique_ptr<SearchEnv>> env_pool;
  /// Batch-assembly buffers for ScoreActionsBatch/ValueBatch calls.
  std::vector<const std::vector<double>*> state_rows;
  std::vector<const std::vector<bool>*> mask_rows;

  /// Per-query reset: drops arena contents (blocks are retained) and the
  /// assembly buffers. The env pool survives — TryCopySearchStateFrom
  /// itself rejects stale/incompatible envs, so pooled objects are safe to
  /// offer to the next query.
  void Clear() {
    arena.Reset();
    state_rows.clear();
    mask_rows.clear();
  }

  /// Returns an env holding a copy of `prototype`'s in-flight episode
  /// state: recycled from the pool when a pooled env accepts the copy,
  /// otherwise a fresh CloneSearch.
  std::unique_ptr<SearchEnv> AcquireEnv(const SearchEnv& prototype);

  /// Hands an env back to the pool for later reuse.
  void ReleaseEnv(std::unique_ptr<SearchEnv> env) {
    if (env != nullptr) env_pool.push_back(std::move(env));
  }
};

/// Everything one search worker needs: the shared frozen policy plus its
/// private mutable state. `rng` is an optional exploration stream for
/// callers driving FrozenPolicy::Sample directly; NONE of the built-in
/// searchers consume it — stochastic searches derive their streams from
/// SearchConfig::seed and the rollout index instead, which is what makes
/// a search never perturb training streams and repeated searches of one
/// query deterministic (pinned in tests/search_test.cc and
/// tests/hands_free_test.cc). Do not wire a future searcher to it
/// without revisiting that contract. `scratch` is optional reusable search
/// memory — searchers fall back to function-local scratch when null.
struct SearchContext {
  const FrozenPolicy* policy = nullptr;
  Rng* rng = nullptr;
  MlpWorkspace* ws = nullptr;
  SearchScratch* scratch = nullptr;
};

}  // namespace hfq

#endif  // HFQ_RL_SEARCH_CONTEXT_H_
