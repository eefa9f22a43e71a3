// Physical plans: the operator trees produced by optimizers (traditional or
// learned) and consumed by the executor, the cost model, and the latency
// simulator.
#ifndef HFQ_PLAN_PHYSICAL_PLAN_H_
#define HFQ_PLAN_PHYSICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "plan/join_tree.h"
#include "plan/query.h"
#include "plan/relset.h"

namespace hfq {

/// Physical operator kinds. Merge join sorts its inputs (sort-merge);
/// SortAggregate sorts its input.
enum class PhysicalOp {
  kSeqScan,
  kIndexScan,
  kNestedLoopJoin,
  kIndexNestedLoopJoin,
  kHashJoin,
  kMergeJoin,
  kHashAggregate,
  kSortAggregate,
};

/// "SeqScan" / "HashJoin" / ...
const char* PhysicalOpName(PhysicalOp op);

/// True for the three binary join operators.
bool IsJoinOp(PhysicalOp op);

/// A node of a physical plan tree.
struct PlanNode {
  PhysicalOp op = PhysicalOp::kSeqScan;

  // --- Scans ---
  /// The query relation scanned (kSeqScan / kIndexScan).
  int rel_idx = -1;
  /// For kIndexScan: index kind & column being probed.
  IndexKind index_kind = IndexKind::kBTree;
  std::string index_column;
  /// Selection predicate (index into query.selections) served by the index
  /// probe itself, or -1 if the index is driven by a join key (see
  /// kIndexNestedLoopJoin).
  int index_sel_idx = -1;
  /// Selections applied at this node after the scan/probe (indices into
  /// query.selections).
  std::vector<int> filter_sel_idxs;

  // --- Joins ---
  /// Equality join predicates evaluated at this node (indices into
  /// query.joins).
  std::vector<int> join_pred_idxs;
  /// For kIndexNestedLoopJoin: which join predicate drives the inner index
  /// probe (must also appear in join_pred_idxs). Inner child must be a scan.
  int inner_probe_pred_idx = -1;

  std::vector<std::unique_ptr<PlanNode>> children;

  /// Relations covered by this subtree.
  RelSet rels = 0;

  // --- Cost-model annotations (filled by CostModel::Annotate) ---
  double est_rows = 0.0;
  double est_cost = 0.0;

  PlanNode() = default;
  PlanNode(const PlanNode&) = delete;
  PlanNode& operator=(const PlanNode&) = delete;

  bool IsScan() const {
    return op == PhysicalOp::kSeqScan || op == PhysicalOp::kIndexScan;
  }
  bool IsJoin() const { return IsJoinOp(op); }
  bool IsAggregate() const {
    return op == PhysicalOp::kHashAggregate ||
           op == PhysicalOp::kSortAggregate;
  }

  const PlanNode* child(size_t i) const { return children[i].get(); }
  PlanNode* mutable_child(size_t i) { return children[i].get(); }

  /// Deep copy.
  std::unique_ptr<PlanNode> Clone() const;

  /// Indented multi-line rendering with cost annotations.
  std::string ToString(const Query& query, int indent = 0) const;

  /// All nodes, pre-order.
  void CollectNodes(std::vector<const PlanNode*>* out) const;

  /// Structural fingerprint (operator kinds, relations, predicates); used
  /// to deduplicate plans and seed deterministic noise.
  uint64_t Fingerprint() const;
};

using PlanNodePtr = std::unique_ptr<PlanNode>;

/// Convenience constructors.
PlanNodePtr MakeSeqScan(int rel_idx, std::vector<int> filter_sel_idxs);
PlanNodePtr MakeIndexScan(int rel_idx, IndexKind kind,
                          std::string index_column, int index_sel_idx,
                          std::vector<int> filter_sel_idxs);
PlanNodePtr MakeJoin(PhysicalOp op, PlanNodePtr left, PlanNodePtr right,
                     std::vector<int> join_pred_idxs,
                     int inner_probe_pred_idx = -1);
PlanNodePtr MakeAggregate(PhysicalOp op, PlanNodePtr input);

/// The logical join tree under a plan, child orientation included.
std::unique_ptr<JoinTreeNode> JoinTreeOf(const PlanNode& plan);

}  // namespace hfq

#endif  // HFQ_PLAN_PHYSICAL_PLAN_H_
