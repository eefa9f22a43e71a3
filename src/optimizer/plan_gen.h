// The shared plan-generator core behind exhaustive join enumeration: a
// cost-only DP table with one entry per relation set, connected-subgraph
// enumeration that never materializes cross products unless the join graph
// forces them (disconnected queries cross-combine whole components, nothing
// finer), and an explicit budget so an infeasibly dense plan space degrades
// into a ResourceExhausted error instead of an open-ended enumeration.
//
// With the current cost model, join cost is monotone in child cost and
// insensitive to input orderings (merge join always sorts), so keeping only
// the cheapest plan per relation set is exact. An entry holds what the
// operator choice reads of a subplan (rows, cost, the scanned relation of a
// singleton) and how the subplan was made (the split and the operator
// decision); the winning tree is built once, after the enumeration.
#ifndef HFQ_OPTIMIZER_PLAN_GEN_H_
#define HFQ_OPTIMIZER_PLAN_GEN_H_

#include <cstdint>

#include "plan/physical_plan.h"
#include "plan/query.h"
#include "util/status.h"

namespace hfq {

class TraditionalOptimizer;

/// Budgets for the plan generator. A query whose join graph induces more
/// DP subproblems than `max_subproblems` — the subsets of its components
/// plus, when it has k >= 2 components, the 2^k - 1 cross-combination
/// states — is not exhaustively plannable at this budget:
/// FindCheapestJoinPlan returns ResourceExhausted (callers fall back to
/// GEQO).
struct PlanGenOptions {
  int64_t max_subproblems = 20000;
  /// Components with at most this many relations enumerate the historic
  /// DPsize subset space: *every* within-component subset, including
  /// internally-disconnected ones, which get cross-product plans when no
  /// predicate-connected split exists (PostgreSQL-style clauseless joins).
  /// That space is Theta(3^n) but contains plans — cross-product
  /// intermediates under a later predicate-connected join — that
  /// occasionally undercut every connected plan, and it is what the
  /// pre-plan_gen enumerator searched, so staying on it keeps cheapest
  /// plans bit-identical at historic sizes. Larger components switch to
  /// connected subgraphs only: exact over the plan space every other
  /// planner (learned envs, GEQO) can actually reach, and polynomial on
  /// sparse graphs.
  int exhaustive_relations = 12;
};

/// Counters describing one enumeration run.
struct PlanGenStats {
  int64_t subproblems = 0;  // Within-component subproblems materialized.
};

/// Exhaustive-within-budget join enumeration over a query's connected
/// subgraphs. Operator and orientation choice delegate to the optimizer's
/// ChooseJoin, so the cheapest plan is bit-identical to the historic
/// System-R DPsize enumerator wherever both are feasible.
class PlanGenerator {
 public:
  /// `optimizer` and `query` must outlive the generator.
  PlanGenerator(TraditionalOptimizer* optimizer, const Query& query,
                PlanGenOptions options = PlanGenOptions());

  /// Runs the enumeration and builds the cheapest plan joining all
  /// relations, or returns ResourceExhausted when the join graph induces
  /// more subproblems than the budget allows. The query must have at least
  /// 2 relations.
  Result<PlanNodePtr> FindCheapestJoinPlan();

  const PlanGenStats& stats() const { return stats_; }

 private:
  TraditionalOptimizer* optimizer_;
  const Query& query_;
  PlanGenOptions options_;
  PlanGenStats stats_;
};

}  // namespace hfq

#endif  // HFQ_OPTIMIZER_PLAN_GEN_H_
