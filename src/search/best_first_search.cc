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

// One unfinished plan prefix on the best-first frontier. The state/mask of
// the prefix's current position are featurized once, at creation, and
// reused for the value ranking and the eventual expansion. The action
// sequence is an arena-backed prefix chain, not a per-node vector copy.
struct FrontierNode {
  std::unique_ptr<SearchEnv> env;
  const ActionPrefix* prefix = nullptr;
  std::vector<double> state;
  std::vector<bool> mask;
  double value = 0.0;  // V(state): the sole expansion-priority signal.
};

// Index of the node to expand next: highest value, ties to the earliest
// inserted (strict >), so expansion order is a pure function of (weights,
// query) — no Rng, no pointer order.
size_t BestNode(const std::vector<FrontierNode>& frontier) {
  size_t best = 0;
  for (size_t i = 1; i < frontier.size(); ++i) {
    if (frontier[i].value > frontier[best].value) best = i;
  }
  return best;
}

}  // namespace

BestFirstSearch::BestFirstSearch(SearchConfig config) : config_(config) {
  HFQ_CHECK(config_.beam_width >= 1);
  HFQ_CHECK(config_.best_first_expansions >= 1);
}

Result<SearchResult> BestFirstSearch::Search(SearchEnv* env,
                                             const SearchContext& ctx,
                                             ThreadPool* pool) {
  (void)pool;  // Expansions are inherently sequential (each pops the max).
  HFQ_CHECK(env != nullptr && ctx.policy != nullptr && ctx.ws != nullptr);
  Stopwatch total;
  // Every state this search forwards, the greedy rollout's included, is
  // forwarded once (see BeamSearch::Search). Siblings often share a state
  // (the access-path and join-operator stages do not encode the choice
  // just made), and expanding each of them would repeat the same policy
  // forward and the same children's value forward.
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

  bool any_search_candidate = false;
  std::vector<FrontierNode> frontier;
  {
    std::unique_ptr<SearchEnv> root_env = scratch->AcquireEnv(*env);
    root_env->Reset();
    if (root_env->Done()) {
      // Zero-decision episode: the root is already a complete plan.
      any_search_candidate = true;
      ++result.rollouts;
      double cost = root_env->FinalCost();
      if (cost < result.cost) {
        result.cost = cost;
        result.actions.clear();
      }
      scratch->ReleaseEnv(std::move(root_env));
    } else {
      FrontierNode root;
      root.state = root_env->StateVector();
      root.mask = root_env->ActionMask();
      root.env = std::move(root_env);
      frontier.push_back(std::move(root));
    }
  }

  const BudgetTimer budget(config_);
  for (int expansion = 0;
       expansion < config_.best_first_expansions && !frontier.empty();
       ++expansion) {
    if (budget.Expired()) break;
    const size_t index = BestNode(frontier);
    FrontierNode node = std::move(frontier[index]);
    frontier.erase(frontier.begin() + static_cast<ptrdiff_t>(index));

    std::vector<double> probs =
        ctx.policy->Probabilities(node.state, node.mask, ctx.ws);
    std::vector<FrontierNode> children;
    for (int action : TopActions(probs, node.mask, width)) {
      std::unique_ptr<SearchEnv> child_env = scratch->AcquireEnv(*node.env);
      child_env->Step(action);
      if (child_env->Done()) {
        // Complete plan: a candidate, scored by its true cost.
        any_search_candidate = true;
        ++result.rollouts;
        double cost = child_env->FinalCost();
        if (cost < result.cost) {
          result.cost = cost;
          result.actions = MaterializePrefix(node.prefix);
          result.actions.push_back(action);
        }
        scratch->ReleaseEnv(std::move(child_env));
        continue;
      }
      FrontierNode child;
      child.prefix = ExtendPrefix(&scratch->arena, node.prefix, action);
      child.state = child_env->StateVector();
      child.mask = child_env->ActionMask();
      child.env = std::move(child_env);
      children.push_back(std::move(child));
    }
    scratch->ReleaseEnv(std::move(node.env));

    // Intra-expansion check: the policy forward + child env steps above
    // may have exhausted the budget — stop before the value-head ranking
    // forward. Finished children were already banked as candidates; the
    // unfinished ones would only seed expansions that will not happen.
    if (budget.Expired()) {
      for (FrontierNode& child : children) {
        scratch->ReleaseEnv(std::move(child.env));
      }
      break;
    }

    // ONE matrix forward values the whole fan-out (batched rows are
    // bit-identical to the per-child calls they replace); children enter
    // the frontier in creation order, preserving the tie-break contract.
    if (!children.empty()) {
      scratch->state_rows.clear();
      scratch->mask_rows.clear();
      for (const FrontierNode& child : children) {
        scratch->state_rows.push_back(&child.state);
        scratch->mask_rows.push_back(&child.mask);
      }
      std::vector<double> values = ctx.policy->ValueBatch(
          scratch->state_rows, scratch->mask_rows, ctx.ws);
      for (size_t i = 0; i < children.size(); ++i) {
        children[i].value = values[i];
        frontier.push_back(std::move(children[i]));
      }
    }
  }
  for (FrontierNode& node : frontier) {
    scratch->ReleaseEnv(std::move(node.env));
  }
  result.fell_back_to_greedy = !any_search_candidate;

  FinishSearch(env, total, &result);
  return result;
}

}  // namespace hfq
