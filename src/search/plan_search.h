// Pluggable plan-time search over a frozen policy: how a trained model is
// *used* at optimization time, decoupled from how it was trained. The
// paper's case study infers plans by greedy argmax (one rollout, no
// backtracking); its successors show the win from searching at plan time —
// Neo steers best-first search with a learned value model, Balsa runs beam
// search over plan prefixes. This layer provides all four strategies over
// any SearchEnv + FrozenPolicy:
//
//   * GreedySearch    — one greedy rollout; bit-for-bit the historic
//                       trainer/facade inference path;
//   * BestOfKSearch   — K independent rollouts (rollout 0 greedy, the rest
//                       sampled from per-rollout derived Rng streams),
//                       keeping the cheapest by the env's FinalCost;
//                       optionally fanned out on a ThreadPool;
//   * BeamSearch      — width-W frontier over plan prefixes: the policy
//                       proposes each prefix's top-W continuations by
//                       probability, the value head ranks which W prefixes
//                       survive (score = cumulative log-prob + value);
//   * BestFirstSearch — Neo's strategy: a global frontier ranked purely by
//                       the value head, expanded best-node-first under a
//                       node budget.
//
// Every searcher's candidate set includes the greedy rollout, so a search
// never returns a plan costlier than greedy inference, and an exhausted
// time budget degrades gracefully *to* greedy. Determinism: for a fixed
// (SearchConfig, model, query), Search returns identical results on every
// call, at any worker count — stochastic rollouts draw from streams
// derived from SearchConfig::seed and the rollout index, never from a
// persistent Rng (see the SearchContext contract).
#ifndef HFQ_SEARCH_PLAN_SEARCH_H_
#define HFQ_SEARCH_PLAN_SEARCH_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rl/env.h"
#include "rl/search_context.h"
#include "util/arena.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace hfq {

/// Which plan-time search strategy to run.
enum class SearchMode {
  kGreedy,     ///< One greedy rollout (the paper's inference).
  kBestOfK,    ///< K rollouts, keep the cheapest (sampling-based).
  kBeam,       ///< Width-W value-guided beam over plan prefixes.
  kBestFirst,  ///< Neo-style best-first search ranked by the value head.
};

/// "greedy" / "best-of-k" / "beam" / "best-first".
const char* SearchModeName(SearchMode mode);

/// Plan-time search knobs.
struct SearchConfig {
  SearchConfig() {}
  SearchMode mode = SearchMode::kGreedy;
  /// Rollouts for kBestOfK (>= 1; rollout 0 is the greedy rollout).
  int best_of_k = 8;
  /// Frontier width for kBeam, and the per-expansion fan-out of
  /// kBestFirst (>= 1).
  int beam_width = 4;
  /// Node-expansion budget for kBestFirst (>= 1): how many frontier nodes
  /// may be popped and expanded before the search settles for the best
  /// candidate found (at minimum the greedy rollout).
  int best_first_expansions = 64;
  /// Weight of the value head in beam frontier ranking (score =
  /// cumulative log-prob + value_weight * value). 0 disables the head.
  double value_weight = 1.0;
  /// Per-query wall-clock budget in ms; <= 0 disables. A search that
  /// exhausts the budget returns the best candidate found so far — at
  /// minimum the greedy rollout, which is always completed first.
  /// Budgeted runs trade the no-budget determinism guarantee for
  /// predictable latency (which candidates complete becomes timing-
  /// dependent); the greedy fallback itself is always deterministic.
  double time_budget_ms = 0.0;
  /// Master seed for the sampled rollouts of kBestOfK. Rollout r draws
  /// from an Rng derived from (seed, r) only, so results are independent
  /// of worker count and of any sampling that happened before the call.
  uint64_t seed = 1;
  /// TEST-ONLY clock override for budget-expiry decisions: when set, every
  /// "has the budget expired?" check reads this (elapsed ms since search
  /// start) instead of the searcher's wall-clock stopwatch, making expiry
  /// points deterministic and therefore testable. The charged
  /// `planning_ms` always remains real wall time. Must be thread-safe if
  /// the search fans out over a pool (best-of-K queries it from workers).
  std::function<double()> clock_ms_for_test;
};

/// Human-readable mode tag, e.g. "greedy", "best-of-8", "beam-4",
/// "best-first-4"; used as the per-mode key in evaluation reports.
std::string SearchConfigName(const SearchConfig& config);

/// Parses SearchConfigName output (also accepts "best-of-k" / "beam" /
/// "best-first" with the config's current K / width): "greedy",
/// "best-of-<K>", "beam-<W>", "best-first-<W>".
Result<SearchConfig> ParseSearchSpec(const std::string& spec);

/// What a search found.
struct SearchResult {
  /// The chosen action sequence, replayed onto the searched env before
  /// returning (the env ends Done() at this plan).
  std::vector<int> actions;
  /// FinalCost of the chosen sequence (lower is better).
  double cost = 0.0;
  /// Planning-time charge for the Figure 3c comparison. Greedy keeps the
  /// historic pure-inference accounting (featurization + forward passes
  /// of its single rollout); every other mode charges the full search
  /// wall clock — all rollouts, expansions, and the final replay — never
  /// just the winning rollout.
  double planning_ms = 0.0;
  /// Complete candidate plans examined (>= 1: the greedy rollout).
  int rollouts = 0;
  /// True when the time budget expired before any non-greedy candidate
  /// completed, i.e. the result *is* the greedy fallback.
  bool fell_back_to_greedy = false;
};

/// One plan-time search strategy. Implementations are stateless between
/// calls; one instance may be reused across queries and threads (each
/// call brings its own env + context).
class PlanSearch {
 public:
  virtual ~PlanSearch() = default;

  /// Searches for a plan of `env`'s current query (SetQuery must have been
  /// called). Resets the env, explores per the strategy, then replays the
  /// winning action sequence so `env` ends Done() at the returned plan.
  /// `pool` (optional) parallelizes strategies that fan out independent
  /// rollouts; passing nullptr runs serially with identical results.
  /// Beam and best-first search memoize network outputs on `ctx.ws` for
  /// the length of the call (an MlpMemoScope), so each distinct state is
  /// forwarded once; no scope may already be open on `ctx.ws`. Greedy and
  /// best-of-K forward without a memo: a greedy rollout never repeats a
  /// state, and best-of-K's lock-step rollouts rarely repeat a whole step.
  virtual Result<SearchResult> Search(SearchEnv* env,
                                      const SearchContext& ctx,
                                      ThreadPool* pool = nullptr) = 0;

  virtual SearchMode mode() const = 0;
};

/// The paper's inference path: a single greedy rollout.
class GreedySearch : public PlanSearch {
 public:
  explicit GreedySearch(SearchConfig config);
  Result<SearchResult> Search(SearchEnv* env, const SearchContext& ctx,
                              ThreadPool* pool = nullptr) override;
  SearchMode mode() const override { return SearchMode::kGreedy; }

 private:
  SearchConfig config_;
};

/// K rollouts (greedy + K-1 sampled), cheapest FinalCost wins; ties go to
/// the lowest rollout index, so best-of-1 is exactly GreedySearch and the
/// chosen cost is monotone non-increasing in K for a fixed seed.
class BestOfKSearch : public PlanSearch {
 public:
  explicit BestOfKSearch(SearchConfig config);
  Result<SearchResult> Search(SearchEnv* env, const SearchContext& ctx,
                              ThreadPool* pool = nullptr) override;
  SearchMode mode() const override { return SearchMode::kBestOfK; }

 private:
  SearchConfig config_;
};

/// Synchronized beam over join-tree/plan prefixes. Each round every
/// frontier prefix proposes its top-W next actions by policy probability;
/// finished children join the candidate pool, unfinished ones compete for
/// the W frontier slots by cumulative log-prob + value head. Width 1
/// therefore reproduces GreedySearch bit-for-bit (one prefix, top-1
/// action = the greedy action; the value head never gets to rank).
class BeamSearch : public PlanSearch {
 public:
  explicit BeamSearch(SearchConfig config);
  Result<SearchResult> Search(SearchEnv* env, const SearchContext& ctx,
                              ThreadPool* pool = nullptr) override;
  SearchMode mode() const override { return SearchMode::kBeam; }

 private:
  SearchConfig config_;
};

/// Neo-style best-first search: a global frontier of unfinished plan
/// prefixes ranked purely by the trained value head (highest estimated
/// value expands first; insertion order breaks ties). Each expansion pops
/// the best node and steps its top-`beam_width` policy actions; finished
/// children become candidate plans. Stops after `best_first_expansions`
/// expansions (or an empty frontier, or the time budget) and returns the
/// cheapest candidate, which always includes the greedy rollout. With
/// beam_width 1 the value head never arbitrates between siblings, so the
/// search reproduces GreedySearch's plan bit-for-bit.
class BestFirstSearch : public PlanSearch {
 public:
  explicit BestFirstSearch(SearchConfig config);
  Result<SearchResult> Search(SearchEnv* env, const SearchContext& ctx,
                              ThreadPool* pool = nullptr) override;
  SearchMode mode() const override { return SearchMode::kBestFirst; }

 private:
  SearchConfig config_;
};

/// Factory keyed on config.mode.
std::unique_ptr<PlanSearch> MakePlanSearch(const SearchConfig& config);

namespace search_internal {

/// Budget bookkeeping for one Search call. Searchers query Expired() both
/// at round boundaries and *inside* a round (before each batch forward),
/// so an exhausted budget stops the search before paying for the next
/// inference instead of after finishing a whole round — the overshoot is
/// bounded by one step of env work rather than a full
/// frontier-forward + expansion + value-ranking round. Time normally
/// comes from a wall-clock stopwatch started at construction; tests
/// inject SearchConfig::clock_ms_for_test to script the expiry point.
class BudgetTimer {
 public:
  explicit BudgetTimer(const SearchConfig& config)
      : budget_ms_(config.time_budget_ms), clock_(config.clock_ms_for_test) {}

  /// True once the budget is enabled (> 0) and elapsed time passed it.
  bool Expired() const {
    if (budget_ms_ <= 0.0) return false;
    const double now = clock_ ? clock_() : watch_.ElapsedMillis();
    return now > budget_ms_;
  }

 private:
  double budget_ms_;
  std::function<double()> clock_;
  Stopwatch watch_;
};

/// The one exit path every searcher funnels through: replays the winning
/// action sequence onto the caller's env (so it ends Done() at the
/// returned plan), cross-checks the replayed cost, and only THEN charges
/// `result->planning_ms` from `total` — so the charge always covers the
/// full search wall clock *including* the replay and any budget-expired
/// fallback work, never a timestamp captured before the fallback ran.
/// (GreedySearch is the deliberate exception: it charges pure inference
/// time, the historic Figure 3c metric, and does not use this helper.)
void FinishSearch(SearchEnv* env, const Stopwatch& total,
                  SearchResult* result);

/// One greedy rollout from Reset: returns the action sequence, leaves the
/// env Done(). `select_ms_out` (optional) accumulates the pure inference
/// time (StateVector + ActionMask + policy forward), the historic
/// Figure 3c metric.
std::vector<int> GreedyRollout(SearchEnv* env, const SearchContext& ctx,
                               double* select_ms_out);

/// One sampled rollout from Reset using `rng`; leaves the env Done().
std::vector<int> SampledRollout(SearchEnv* env, const FrozenPolicy& policy,
                                Rng* rng, MlpWorkspace* ws);

/// Replays `actions` from Reset; leaves the env Done().
void ReplayActions(SearchEnv* env, const std::vector<int>& actions);

/// Top-`width` valid actions by probability, descending, ties to the
/// lower action index (so width 1 picks exactly the greedy action).
/// Shared by the beam and best-first expansions.
std::vector<int> TopActions(const std::vector<double>& probs,
                            const std::vector<bool>& mask, int width);

/// One Categorical draw from a probability row (masked entries must be 0),
/// with the same validity check the built-in policies' Sample performs.
/// Lock-step best-of-K samples each rollout from its own ScoreActionsBatch
/// row through this — bit-identical to FrozenPolicy::Sample for the
/// built-in policies, whose Sample is exactly Categorical(Probabilities).
int SampleFromProbs(const std::vector<double>& probs,
                    const std::vector<bool>& mask, Rng* rng);

/// Arena-allocated plan-prefix link: prefixes form a reversed tree of
/// these, so extending a prefix by one action is O(1) arena bytes instead
/// of an O(depth) vector copy per expanded child. Nodes live until the
/// owning arena resets (per query), never freed per node.
struct ActionPrefix {
  const ActionPrefix* parent = nullptr;
  int action = 0;
  int length = 0;  ///< Actions in the chain ending here.
};

/// Appends `action` to `prefix` (nullptr = empty prefix) in `arena`.
const ActionPrefix* ExtendPrefix(Arena* arena, const ActionPrefix* prefix,
                                 int action);

/// Flattens a prefix chain into the action sequence it encodes.
std::vector<int> MaterializePrefix(const ActionPrefix* prefix);

}  // namespace search_internal

}  // namespace hfq

#endif  // HFQ_SEARCH_PLAN_SEARCH_H_
