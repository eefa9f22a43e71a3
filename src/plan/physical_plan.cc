#include "plan/physical_plan.h"

#include <sstream>

#include "util/check.h"
#include "util/string_util.h"

namespace hfq {

const char* PhysicalOpName(PhysicalOp op) {
  switch (op) {
    case PhysicalOp::kSeqScan:
      return "SeqScan";
    case PhysicalOp::kIndexScan:
      return "IndexScan";
    case PhysicalOp::kNestedLoopJoin:
      return "NestedLoopJoin";
    case PhysicalOp::kIndexNestedLoopJoin:
      return "IndexNestedLoopJoin";
    case PhysicalOp::kHashJoin:
      return "HashJoin";
    case PhysicalOp::kMergeJoin:
      return "MergeJoin";
    case PhysicalOp::kHashAggregate:
      return "HashAggregate";
    case PhysicalOp::kSortAggregate:
      return "SortAggregate";
  }
  return "?";
}

bool IsJoinOp(PhysicalOp op) {
  return op == PhysicalOp::kNestedLoopJoin ||
         op == PhysicalOp::kIndexNestedLoopJoin ||
         op == PhysicalOp::kHashJoin || op == PhysicalOp::kMergeJoin;
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto node = std::make_unique<PlanNode>();
  node->op = op;
  node->rel_idx = rel_idx;
  node->index_kind = index_kind;
  node->index_column = index_column;
  node->index_sel_idx = index_sel_idx;
  node->filter_sel_idxs = filter_sel_idxs;
  node->join_pred_idxs = join_pred_idxs;
  node->inner_probe_pred_idx = inner_probe_pred_idx;
  node->rels = rels;
  node->est_rows = est_rows;
  node->est_cost = est_cost;
  for (const auto& c : children) node->children.push_back(c->Clone());
  return node;
}

std::string PlanNode::ToString(const Query& query, int indent) const {
  std::ostringstream out;
  out << std::string(static_cast<size_t>(indent) * 2, ' ')
      << PhysicalOpName(op);
  if (IsScan()) {
    out << " " << query.relations[static_cast<size_t>(rel_idx)].table;
    if (query.relations[static_cast<size_t>(rel_idx)].alias !=
        query.relations[static_cast<size_t>(rel_idx)].table) {
      out << " AS " << query.relations[static_cast<size_t>(rel_idx)].alias;
    }
    if (op == PhysicalOp::kIndexScan) {
      out << " using " << IndexKindName(index_kind) << "(" << index_column
          << ")";
    }
    if (!filter_sel_idxs.empty()) {
      out << " filter[";
      for (size_t i = 0; i < filter_sel_idxs.size(); ++i) {
        const auto& sel =
            query.selections[static_cast<size_t>(filter_sel_idxs[i])];
        if (i) out << " AND ";
        out << sel.column.column << CmpOpName(sel.op) << sel.value.ToString();
      }
      out << "]";
    }
  }
  if (IsJoin() && !join_pred_idxs.empty()) {
    out << " on[";
    for (size_t i = 0; i < join_pred_idxs.size(); ++i) {
      const auto& j = query.joins[static_cast<size_t>(join_pred_idxs[i])];
      if (i) out << " AND ";
      out << query.relations[static_cast<size_t>(j.left.rel_idx)].alias << "."
          << j.left.column << "="
          << query.relations[static_cast<size_t>(j.right.rel_idx)].alias << "."
          << j.right.column;
    }
    out << "]";
  }
  out << StrFormat("  (rows=%.0f cost=%.1f)", est_rows, est_cost);
  for (const auto& c : children) {
    out << "\n" << c->ToString(query, indent + 1);
  }
  return out.str();
}

void PlanNode::CollectNodes(std::vector<const PlanNode*>* out) const {
  out->push_back(this);
  for (const auto& c : children) c->CollectNodes(out);
}

uint64_t PlanNode::Fingerprint() const {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis.
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(op));
  mix(static_cast<uint64_t>(rel_idx + 1));
  mix(static_cast<uint64_t>(index_kind));
  for (char c : index_column) mix(static_cast<uint64_t>(c));
  mix(static_cast<uint64_t>(index_sel_idx + 1));
  for (int s : filter_sel_idxs) mix(static_cast<uint64_t>(s + 1));
  for (int j : join_pred_idxs) mix(static_cast<uint64_t>(j + 1));
  mix(static_cast<uint64_t>(inner_probe_pred_idx + 1));
  for (const auto& c : children) mix(c->Fingerprint());
  return h;
}

PlanNodePtr MakeSeqScan(int rel_idx, std::vector<int> filter_sel_idxs) {
  auto node = std::make_unique<PlanNode>();
  node->op = PhysicalOp::kSeqScan;
  node->rel_idx = rel_idx;
  node->filter_sel_idxs = std::move(filter_sel_idxs);
  node->rels = RelSetOf(rel_idx);
  return node;
}

PlanNodePtr MakeIndexScan(int rel_idx, IndexKind kind,
                          std::string index_column, int index_sel_idx,
                          std::vector<int> filter_sel_idxs) {
  auto node = std::make_unique<PlanNode>();
  node->op = PhysicalOp::kIndexScan;
  node->rel_idx = rel_idx;
  node->index_kind = kind;
  node->index_column = std::move(index_column);
  node->index_sel_idx = index_sel_idx;
  node->filter_sel_idxs = std::move(filter_sel_idxs);
  node->rels = RelSetOf(rel_idx);
  return node;
}

PlanNodePtr MakeJoin(PhysicalOp op, PlanNodePtr left, PlanNodePtr right,
                     std::vector<int> join_pred_idxs,
                     int inner_probe_pred_idx) {
  HFQ_CHECK(IsJoinOp(op));
  HFQ_CHECK(left != nullptr && right != nullptr);
  HFQ_CHECK(RelSetDisjoint(left->rels, right->rels));
  auto node = std::make_unique<PlanNode>();
  node->op = op;
  node->join_pred_idxs = std::move(join_pred_idxs);
  node->inner_probe_pred_idx = inner_probe_pred_idx;
  node->rels = RelSetUnion(left->rels, right->rels);
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

PlanNodePtr MakeAggregate(PhysicalOp op, PlanNodePtr input) {
  HFQ_CHECK(op == PhysicalOp::kHashAggregate ||
            op == PhysicalOp::kSortAggregate);
  auto node = std::make_unique<PlanNode>();
  node->op = op;
  node->rels = input->rels;
  node->children.push_back(std::move(input));
  return node;
}

std::unique_ptr<JoinTreeNode> JoinTreeOf(const PlanNode& plan) {
  if (plan.IsAggregate()) return JoinTreeOf(*plan.child(0));
  if (plan.IsScan()) return JoinTreeNode::Leaf(plan.rel_idx);
  HFQ_CHECK(plan.IsJoin());
  return JoinTreeNode::Join(JoinTreeOf(*plan.child(0)),
                            JoinTreeOf(*plan.child(1)));
}

}  // namespace hfq
