#include "optimizer/plan_gen.h"

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "optimizer/optimizer.h"
#include "util/check.h"

namespace hfq {
namespace {

// Connected components of the query's join graph, in lowest-member order.
std::vector<RelSet> JoinGraphComponents(const Query& query) {
  std::vector<RelSet> components;
  RelSet seen = 0;
  for (int rel = 0; rel < query.num_relations(); ++rel) {
    if (seen & RelSetOf(rel)) continue;
    RelSet comp = RelSetOf(rel);
    for (;;) {
      RelSet next = comp | query.NeighborsOfSet(comp);
      if (next == comp) break;
      comp = next;
    }
    components.push_back(comp);
    seen |= comp;
  }
  return components;
}

Status OverBudget(int64_t max_subproblems) {
  return Status::ResourceExhausted(
      "join graph induces more than " + std::to_string(max_subproblems) +
      " DP subproblems; enumeration over-budget");
}

// One DP table entry: what ChooseJoin reads of the relation set's cheapest
// plan, and how to build that plan. A singleton is a scan of `plan.scan_rel`
// (outer == 0); a join is `choice` over the split (outer, inner).
struct Entry {
  JoinInput plan;
  RelSet outer = 0;
  RelSet inner = 0;
  JoinChoice choice;
};

}  // namespace

PlanGenerator::PlanGenerator(TraditionalOptimizer* optimizer,
                             const Query& query, PlanGenOptions options)
    : optimizer_(optimizer), query_(query), options_(options) {
  HFQ_CHECK(optimizer != nullptr);
}

Result<PlanNodePtr> PlanGenerator::FindCheapestJoinPlan() {
  const int n = query_.num_relations();
  HFQ_CHECK(n >= 2);
  const std::vector<RelSet> components = JoinGraphComponents(query_);
  const int k = static_cast<int>(components.size());

  // Subproblem universe, per component: small components get the full
  // historic subset space (bit-identical plans to the pre-plan_gen
  // enumerator, clauseless-join cross products included); large components
  // get connected subgraphs only (scalable on sparse graphs; see
  // PlanGenOptions::exhaustive_relations). Every connected subset of size
  // m+1 is a connected subset of size m plus one neighbor, so growing from
  // singletons with a dedup set enumerates each exactly once — 2^n never
  // appears for sparse graphs. The cross-combination of k >= 2 components
  // charges its 2^k - 1 states up front. The budget is checked during
  // growth, so a graph denser than the budget is rejected before any
  // planning work happens.
  const int64_t combination_states = k >= 2 ? (int64_t{1} << k) - 1 : 0;
  std::unordered_set<RelSet> seen;
  auto over_budget = [&](int64_t more) {
    return combination_states + static_cast<int64_t>(seen.size()) + more >
           options_.max_subproblems;
  };
  if (over_budget(0)) return OverBudget(options_.max_subproblems);
  std::vector<RelSet> pending;
  for (RelSet comp : components) {
    const int comp_size = RelSetCount(comp);
    if (comp_size <= options_.exhaustive_relations) {
      if (over_budget((int64_t{1} << comp_size) - 1)) {
        return OverBudget(options_.max_subproblems);
      }
      for (RelSet sub = comp; sub != 0; sub = (sub - 1) & comp) {
        seen.insert(sub);
      }
    } else {
      for (int rel : RelSetMembers(comp)) {
        seen.insert(RelSetOf(rel));
        pending.push_back(RelSetOf(rel));
      }
      if (over_budget(0)) return OverBudget(options_.max_subproblems);
    }
  }
  while (!pending.empty()) {
    RelSet s = pending.back();
    pending.pop_back();
    RelSet nb = query_.NeighborsOfSet(s);
    while (nb != 0) {
      int rel = std::countr_zero(nb);
      nb &= nb - 1;
      RelSet grown = s | RelSetOf(rel);
      if (!seen.insert(grown).second) continue;
      pending.push_back(grown);
      if (over_budget(0)) return OverBudget(options_.max_subproblems);
    }
  }
  std::vector<RelSet> subsets(seen.begin(), seen.end());
  // Ascending mask order visits every subset before any of its supersets,
  // which is all the DP needs.
  std::sort(subsets.begin(), subsets.end());

  stats_ = PlanGenStats();
  stats_.subproblems = static_cast<int64_t>(subsets.size());

  std::unordered_map<RelSet, Entry> table;
  table.reserve(subsets.size() + static_cast<size_t>(combination_states));
  std::vector<PlanNodePtr> scans(static_cast<size_t>(n));
  CardinalitySource* cards = optimizer_->cost_model()->cards();

  // Offers the join of `outer` to `inner` to `into`. The entry changes only
  // on a strictly lower cost, so a tie keeps the first plan offered — with
  // splits walked in the historic DPsize order (descending submasks,
  // unordered pairs, outer-then-swapped), the plan the pre-plan_gen
  // enumerator chose.
  auto offer = [&](Entry* into, const std::vector<int>& preds,
                   RelSet outer_set, const Entry& outer, RelSet inner_set,
                   const Entry& inner) {
    const JoinChoice choice = optimizer_->ChooseJoin(
        query_, preds, into->plan.rows, outer.plan, inner.plan);
    if (into->outer != 0 && !(choice.cost < into->plan.cost)) return;
    into->plan.cost = choice.cost;
    into->outer = outer_set;
    into->inner = inner_set;
    into->choice = choice;
  };

  for (RelSet s : subsets) {
    Entry entry;
    if (RelSetCount(s) == 1) {
      const int rel = std::countr_zero(s);
      PlanNodePtr& scan = scans[static_cast<size_t>(rel)];
      scan = optimizer_->BestAccessPath(query_, rel);
      entry.plan = JoinInput{scan->est_rows, scan->est_cost, rel};
      table.emplace(s, entry);
      continue;
    }
    entry.plan.rows = cards->Rows(query_, s);
    // Pass 0 takes only splits connected by at least one join predicate.
    // Its table lookups run before the predicate scan: on sparse graphs
    // most submasks are not materialized subproblems, and the O(1) misses
    // keep the 2^|s| walk from paying O(#joins) per iteration. Pass 1 runs
    // only when pass 0 found no split: cross products, so the
    // internally-disconnected subsets of the exhaustive regime still plan.
    // Connected subproblems never get there — a connected set of size >= 2
    // always has a predicate-connected split into two connected parts (drop
    // one spanning-tree edge), both already in the table by ascending mask
    // order.
    for (int pass = 0; pass < 2 && entry.outer == 0; ++pass) {
      for (RelSet s1 = (s - 1) & s; s1 != 0; s1 = (s1 - 1) & s) {
        const RelSet s2 = s & ~s1;
        if (s1 > s2) continue;  // Unordered pairs; orientations in offer.
        auto it1 = table.find(s1);
        if (it1 == table.end()) continue;  // Not a materialized subproblem.
        auto it2 = table.find(s2);
        if (it2 == table.end()) continue;
        const std::vector<int> preds = query_.JoinPredsBetween(s1, s2);
        if (pass == 0 && preds.empty()) continue;
        offer(&entry, preds, s1, it1->second, s2, it2->second);
        offer(&entry, preds, s2, it2->second, s1, it1->second);
      }
    }
    HFQ_CHECK_MSG(entry.outer != 0, "DP subproblem admitted no usable split");
    table.emplace(s, entry);
  }

  if (k >= 2) {
    // Cross-combination DP over the component plans: every component's
    // output cardinality is fixed by the cardinality model (it depends on
    // the relation set, not the plan), so component-optimal subplans are
    // globally optimal and only the cross-join shape remains to optimize.
    // States are walked as masks over component indices (the historic
    // order) and kept in the same table under the union of their
    // components; components share no predicate.
    auto union_of = [&components](uint64_t mask) {
      RelSet rels = 0;
      for (; mask != 0; mask &= mask - 1) {
        rels |= components[static_cast<size_t>(std::countr_zero(mask))];
      }
      return rels;
    };
    const std::vector<int> no_preds;
    const uint64_t full = (uint64_t{1} << k) - 1;
    for (uint64_t m = 1; m <= full; ++m) {
      if (std::popcount(m) < 2) continue;
      const RelSet s = union_of(m);
      Entry entry;
      entry.plan.rows = cards->Rows(query_, s);
      for (uint64_t m1 = (m - 1) & m; m1 != 0; m1 = (m1 - 1) & m) {
        const uint64_t m2 = m & ~m1;
        if (m1 > m2) continue;
        const RelSet s1 = union_of(m1);
        const RelSet s2 = s & ~s1;
        const Entry& e1 = table.at(s1);
        const Entry& e2 = table.at(s2);
        offer(&entry, no_preds, s1, e1, s2, e2);
        offer(&entry, no_preds, s2, e2, s1, e1);
      }
      table.emplace(s, entry);
    }
  }

  // The one tree build: children first, each scan moved in exactly once.
  auto build = [&](auto& self, RelSet s) -> PlanNodePtr {
    const Entry& entry = table.at(s);
    if (entry.outer == 0) {
      return std::move(scans[static_cast<size_t>(entry.plan.scan_rel)]);
    }
    PlanNodePtr outer = self(self, entry.outer);
    PlanNodePtr inner = self(self, entry.inner);
    return optimizer_->BuildJoin(
        query_, entry.choice, query_.JoinPredsBetween(entry.outer, entry.inner),
        entry.plan.rows, std::move(outer), std::move(inner));
  };
  return build(build, RelSetAll(n));
}

}  // namespace hfq
