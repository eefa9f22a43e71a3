// Exhaustive join enumeration on the shared plan-generator core
// (plan_gen.h): a cost-only DP table with one entry per relation set,
// optimal w.r.t. the cost model over bushy trees, avoiding cross products
// unless the join graph forces them (PostgreSQL behaviour). Disconnected
// queries are planned per connected component, then the component plans
// are cross-combined by an exact DP over components — the same restricted
// plan space the learned environments and GEQO search (components finish
// internally before any cross product), so DP stays the cost floor of the
// regret metrics. Only the winning plan is ever built. Queries whose join
// graphs exceed the subproblem budget yield ResourceExhausted, and Optimize
// falls back to GEQO.
#include "optimizer/optimizer.h"
#include "optimizer/plan_gen.h"
#include "util/check.h"

namespace hfq {

Result<PlanNodePtr> TraditionalOptimizer::EnumerateDp(const Query& query) {
  HFQ_CHECK(query.num_relations() >= 2);
  PlanGenOptions gen_options;
  gen_options.max_subproblems = options_.dp_max_subproblems;
  gen_options.exhaustive_relations = options_.dp_exhaustive_relations;
  PlanGenerator gen(this, query, gen_options);
  return gen.FindCheapestJoinPlan();
}

}  // namespace hfq
