// The traditional ("expert") query optimizer: a PostgreSQL-style pipeline of
// join-order enumeration (System-R DP up to geqo_threshold relations,
// genetic search beyond — like Postgres' GEQO), access-path selection,
// join-operator selection, and aggregate-operator selection, all driven by
// the cost model. Plays three roles from the paper:
//   * the baseline ReJOIN is compared against (Fig 3a/3b/3c),
//   * the demonstration "expert" for learning-from-demonstration (Sec 5.1),
//   * the provider of traditional later-pipeline stages during incremental
//     pipeline training (Sec 5.3.1).
// Join-operator selection is one routine in two halves: ChooseJoin prices
// every operator from the inputs' rows and costs alone, and BuildJoin turns
// the decision into a plan node. BestJoin is the two together; DP
// (plan_gen.h) enumerates with ChooseJoin only and builds its winner once.
#ifndef HFQ_OPTIMIZER_OPTIMIZER_H_
#define HFQ_OPTIMIZER_OPTIMIZER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "plan/join_tree.h"
#include "plan/physical_plan.h"
#include "util/rng.h"
#include "util/status.h"

namespace hfq {

/// Planner knobs (names follow the PostgreSQL settings they mirror).
struct OptimizerOptions {
  OptimizerOptions() {}
  /// Use exhaustive DP for queries with at most this many relations;
  /// genetic search (GEQO) beyond.
  int geqo_threshold = 12;
  /// DP plan-generator budget (plan_gen.h). A join graph inducing more
  /// subproblems than `dp_max_subproblems` makes EnumerateDp return
  /// ResourceExhausted and Optimize fall back to GEQO; sparse graphs
  /// (chains/snowflakes) stay exact far past the old 3^n wall (a
  /// 20-relation chain induces only 210 subproblems).
  int64_t dp_max_subproblems = 20000;
  /// Components up to this size search the historic exhaustive subset
  /// space (clauseless-join cross products included — bit-identical plans
  /// to the pre-plan_gen enumerator); larger components enumerate
  /// connected subgraphs only. See PlanGenOptions::exhaustive_relations.
  int dp_exhaustive_relations = 12;
  bool enable_indexscan = true;
  bool enable_hashjoin = true;
  bool enable_mergejoin = true;
  bool enable_nestloop = true;
  bool enable_indexnestloop = true;
  /// GEQO parameters.
  int geqo_pool_size = 128;
  int geqo_generations = 300;
  uint64_t geqo_seed = 0x5EED5EED;
};

/// What join-operator choice reads of one annotated join input.
struct JoinInput {
  double rows = 0.0;
  double cost = 0.0;
  int scan_rel = -1;  // The scanned relation when the input is a scan.
};

/// The cheapest operator for one oriented join, without its plan node.
struct JoinChoice {
  PhysicalOp op = PhysicalOp::kNestedLoopJoin;
  int probe_pred = -1;                             // INLJ only.
  IndexKind inner_index_kind = IndexKind::kBTree;  // INLJ only.
  double cost = 0.0;
};

/// Cost-based optimizer over a catalog + cost model.
class TraditionalOptimizer {
 public:
  /// `catalog` and `cost_model` must outlive the optimizer.
  TraditionalOptimizer(const Catalog* catalog, CostModel* cost_model,
                       OptimizerOptions options = OptimizerOptions());

  /// Full pipeline: join order + access paths + join operators + aggregate
  /// operator. Returns an annotated plan.
  Result<PlanNodePtr> Optimize(const Query& query);

  /// Performs everything *except* join ordering: physicalizes the given
  /// logical join tree (access paths, join operators, aggregate operator),
  /// preserving the tree's shape and child orientation (paper Section 3:
  /// "the final join ordering is sent to the optimizer to perform operator
  /// selection, index selection, etc."). ReJOIN's plans, built by the
  /// pipeline env with only its join-order stage enabled, are exactly this
  /// physicalization of the agent's tree (pinned by core_test).
  Result<PlanNodePtr> PhysicalizeJoinTree(const Query& query,
                                          const JoinTreeNode& tree);

  /// Cheapest access path (seq scan vs available index scans) for one
  /// relation, annotated. Memoized per (query name, structural
  /// fingerprint, relation): the choice depends only on the query, yet
  /// every PhysicalizeJoinTree call used to recompute all of them — and
  /// plan search physicalizes dozens of candidate trees per query. Returns
  /// a clone of the memoized prototype, so results are bit-identical to
  /// the uncached computation.
  PlanNodePtr BestAccessPath(const Query& query, int rel);

  /// Drops the access-path memo (call when switching workloads to bound
  /// memory; the estimator's ClearCache is the companion).
  void ClearAccessPathCache();

  /// Cheapest join operator for fixed children/orientation, annotated:
  /// ChooseJoin, then BuildJoin. The inputs must be annotated.
  PlanNodePtr BestJoin(const Query& query, PlanNodePtr outer,
                       PlanNodePtr inner);

  /// The cheapest operator joining `outer` to `inner` (that orientation),
  /// given the predicates between them and the join's output rows. Cost
  /// ties keep the first candidate: NLJ, hash, merge, then INLJ per
  /// predicate.
  JoinChoice ChooseJoin(const Query& query, const std::vector<int>& preds,
                        double out_rows, const JoinInput& outer,
                        const JoinInput& inner) const;

  /// Builds the annotated join node `choice` describes over the annotated
  /// children it was chosen for (an INLJ inner becomes its probe scan).
  PlanNodePtr BuildJoin(const Query& query, const JoinChoice& choice,
                        std::vector<int> preds, double out_rows,
                        PlanNodePtr outer, PlanNodePtr inner);

  /// Adds the cheaper of hash/sort aggregation when the query aggregates.
  PlanNodePtr AddAggregateIfNeeded(const Query& query, PlanNodePtr input);

  const OptimizerOptions& options() const { return options_; }
  CostModel* cost_model() { return cost_model_; }
  const Catalog* catalog() const { return catalog_; }

 private:
  /// The JoinInput of an annotated plan node.
  static JoinInput JoinInputOf(const PlanNode& node);

  /// Uncached BestAccessPath body; fills the memo prototype.
  PlanNodePtr ComputeBestAccessPath(const Query& query, int rel);

  /// The access-path memo entry of `query` (one prototype slot per
  /// relation), created on first use. Caller must hold access_mu_.
  std::vector<PlanNodePtr>& AccessEntryLocked(const Query& query);

  Result<PlanNodePtr> EnumerateDp(const Query& query);
  Result<PlanNodePtr> EnumerateGeqo(const Query& query);

  /// What one GEQO enumeration looks up once (defined in geqo.cc).
  struct GeqoLookups;

  /// Builds a plan from a relation permutation by greedy connected
  /// attachment (Postgres gimme_tree); shared by GEQO fitness and decoding.
  PlanNodePtr PlanFromPermutation(const Query& query,
                                  const std::vector<int>& perm,
                                  GeqoLookups* lookups);

  const Catalog* catalog_;
  CostModel* cost_model_;
  OptimizerOptions options_;

  /// Access-path memo, keyed like the estimator's row memo by (query name,
  /// structural fingerprint), so a reused name with another structure gets
  /// its own entry. Each entry holds one prototype per relation, null
  /// until first computed. Synchronized: parallel rollout workers share
  /// one optimizer.
  std::mutex access_mu_;
  std::map<std::pair<std::string, uint64_t>, std::vector<PlanNodePtr>>
      access_cache_;
};

}  // namespace hfq

#endif  // HFQ_OPTIMIZER_OPTIMIZER_H_
