#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "search/plan_search.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace hfq {

using search_internal::ActionPrefix;
using search_internal::BudgetTimer;
using search_internal::ExtendPrefix;
using search_internal::FinishSearch;
using search_internal::GreedyRollout;
using search_internal::MaterializePrefix;
using search_internal::TopActions;

namespace {

// One live (non-terminal) plan prefix, either on the frontier or
// competing for a slot. The state/mask of the prefix's current position
// are computed once, when the prefix is created, and reused for both the
// value-head ranking and the next round's expansion. The action sequence
// is an arena-backed prefix chain, not a per-item vector copy.
struct BeamItem {
  std::unique_ptr<SearchEnv> env;
  const ActionPrefix* prefix = nullptr;
  double log_prob = 0.0;  // Cumulative log pi(a|s) along the prefix.
  std::vector<double> state;
  std::vector<bool> mask;
  double rank = 0.0;  // log_prob + value_weight * V(state).
};

// One (parent, action) fan-out slot of a beam round. Slots are created in
// the deterministic serial order (parent order, then probability rank) and
// filled independently — by the calling thread or striped across pool
// workers — so the round's outcome never depends on worker count.
struct Expansion {
  size_t parent = 0;
  int action = 0;
  double log_prob = 0.0;
  std::unique_ptr<SearchEnv> env;
  std::vector<double> state;
  std::vector<bool> mask;
  bool done = false;
  double cost = 0.0;
};

// Steps one expansion slot's already-acquired child env: terminal cost or
// next-position featurization. Pure env work — no policy calls, no shared
// mutable state — which is what makes it safe to run on any worker.
void FillExpansion(Expansion* e) {
  e->env->Step(e->action);
  e->done = e->env->Done();
  if (e->done) {
    e->cost = e->env->FinalCost();
  } else {
    e->state = e->env->StateVector();
    e->mask = e->env->ActionMask();
  }
}

}  // namespace

BeamSearch::BeamSearch(SearchConfig config) : config_(config) {
  HFQ_CHECK(config_.beam_width >= 1);
}

Result<SearchResult> BeamSearch::Search(SearchEnv* env,
                                        const SearchContext& ctx,
                                        ThreadPool* pool) {
  HFQ_CHECK(env != nullptr && ctx.policy != nullptr && ctx.ws != nullptr);
  Stopwatch total;
  // Every state this search forwards, the greedy rollout's included, is
  // forwarded once: the root's scoring and children that repeat a state
  // are served from the memo.
  const MlpMemoScope memo(ctx.ws);
  const int width = config_.beam_width;
  SearchScratch local_scratch;
  SearchScratch* scratch =
      ctx.scratch != nullptr ? ctx.scratch : &local_scratch;
  scratch->Clear();

  // The greedy rollout: fallback, cost floor, and first completed
  // candidate.
  SearchResult result;
  result.actions = GreedyRollout(env, ctx, nullptr);
  result.cost = env->FinalCost();
  result.rollouts = 1;

  // Root prefix: the episode start. A zero-decision episode (single
  // relation / all-trivial stages) is already Done here and counts as a
  // completed candidate immediately.
  bool any_beam_candidate = false;
  std::vector<BeamItem> frontier;
  {
    std::unique_ptr<SearchEnv> root_env = scratch->AcquireEnv(*env);
    root_env->Reset();
    if (root_env->Done()) {
      any_beam_candidate = true;
      ++result.rollouts;
      double cost = root_env->FinalCost();
      if (cost < result.cost) {
        result.cost = cost;
        result.actions.clear();
      }
      scratch->ReleaseEnv(std::move(root_env));
    } else {
      BeamItem root;
      root.state = root_env->StateVector();
      root.mask = root_env->ActionMask();
      root.env = std::move(root_env);
      frontier.push_back(std::move(root));
    }
  }

  const BudgetTimer budget(config_);
  while (!frontier.empty()) {
    if (budget.Expired()) break;

    // ONE matrix forward scores the whole frontier (batched rows are
    // bit-identical to the per-item calls they replace).
    scratch->state_rows.clear();
    scratch->mask_rows.clear();
    for (const BeamItem& item : frontier) {
      scratch->state_rows.push_back(&item.state);
      scratch->mask_rows.push_back(&item.mask);
    }
    std::vector<std::vector<double>> probs = ctx.policy->ScoreActionsBatch(
        scratch->state_rows, scratch->mask_rows, ctx.ws);

    // The round's fan-out, in the deterministic serial order.
    std::vector<Expansion> expansions;
    for (size_t i = 0; i < frontier.size(); ++i) {
      for (int action : TopActions(probs[i], frontier[i].mask, width)) {
        Expansion e;
        e.parent = i;
        e.action = action;
        e.log_prob =
            frontier[i].log_prob +
            std::log(std::max(probs[i][static_cast<size_t>(action)], 1e-300));
        expansions.push_back(std::move(e));
      }
    }

    // Intra-round check #1: the frontier forward above may have spent the
    // rest of the budget; bail before paying for the whole expansion
    // fan-out (no expansion holds an env yet, so breaking is free — the
    // frontier is released on the common exit below).
    if (budget.Expired()) break;

    // Fill the slots: env clone + step + featurize. Parallelizable because
    // slots are independent and arena/pool access stays on this thread;
    // each slot's content is a pure function of (parent env, action), so
    // any worker count yields the same round.
    const int num_workers =
        pool != nullptr
            ? std::min(pool->num_threads(), static_cast<int>(expansions.size()))
            : 1;
    if (num_workers > 1) {
      RunOnWorkers(pool, num_workers, [&](int w) {
        for (size_t j = static_cast<size_t>(w); j < expansions.size();
             j += static_cast<size_t>(num_workers)) {
          Expansion& e = expansions[j];
          e.env = frontier[e.parent].env->CloneSearch();
          FillExpansion(&e);
        }
      });
    } else {
      for (Expansion& e : expansions) {
        e.env = scratch->AcquireEnv(*frontier[e.parent].env);
        FillExpansion(&e);
      }
    }

    // Process slots in order: finished prefixes are candidate plans scored
    // by true cost; unfinished ones compete for the frontier.
    std::vector<BeamItem> children;
    for (Expansion& e : expansions) {
      if (e.done) {
        any_beam_candidate = true;
        ++result.rollouts;
        if (e.cost < result.cost) {
          result.cost = e.cost;
          result.actions = MaterializePrefix(frontier[e.parent].prefix);
          result.actions.push_back(e.action);
        }
        scratch->ReleaseEnv(std::move(e.env));
        continue;
      }
      BeamItem child;
      child.env = std::move(e.env);
      child.prefix =
          ExtendPrefix(&scratch->arena, frontier[e.parent].prefix, e.action);
      child.log_prob = e.log_prob;
      child.state = std::move(e.state);
      child.mask = std::move(e.mask);
      child.rank = child.log_prob;
      children.push_back(std::move(child));
    }

    // Intra-round check #2: stop before the value-head ranking forward.
    // The finished candidates of this round were already banked above;
    // the unfinished children would only matter for a next round that
    // will not happen, so drop them.
    if (budget.Expired()) {
      for (BeamItem& child : children) {
        scratch->ReleaseEnv(std::move(child.env));
      }
      break;
    }

    // ONE matrix forward values every surviving child for the ranking.
    if (config_.value_weight != 0.0 && !children.empty()) {
      scratch->state_rows.clear();
      scratch->mask_rows.clear();
      for (const BeamItem& child : children) {
        scratch->state_rows.push_back(&child.state);
        scratch->mask_rows.push_back(&child.mask);
      }
      std::vector<double> values = ctx.policy->ValueBatch(
          scratch->state_rows, scratch->mask_rows, ctx.ws);
      for (size_t i = 0; i < children.size(); ++i) {
        children[i].rank += config_.value_weight * values[i];
      }
    }

    // Keep the best `width` unfinished prefixes; stable on ties, so equal
    // ranks resolve by (parent order, action probability order) — fully
    // deterministic.
    std::stable_sort(children.begin(), children.end(),
                     [](const BeamItem& a, const BeamItem& b) {
                       return a.rank > b.rank;
                     });
    while (static_cast<int>(children.size()) > width) {
      scratch->ReleaseEnv(std::move(children.back().env));
      children.pop_back();
    }
    for (BeamItem& item : frontier) {
      scratch->ReleaseEnv(std::move(item.env));
    }
    frontier = std::move(children);
  }
  for (BeamItem& item : frontier) {
    scratch->ReleaseEnv(std::move(item.env));
  }
  result.fell_back_to_greedy = !any_beam_candidate;

  FinishSearch(env, total, &result);
  return result;
}

}  // namespace hfq
