#include "core/full_env.h"

#include <algorithm>
#include <atomic>

#include "util/check.h"

namespace hfq {
namespace {

// Finds the scan node for a relation in a physical plan (nullptr if none).
const PlanNode* FindScanNode(const PlanNode& node, int rel) {
  if (node.IsScan()) return node.rel_idx == rel ? &node : nullptr;
  for (const auto& child : node.children) {
    const PlanNode* found = FindScanNode(*child, rel);
    if (found != nullptr) return found;
  }
  return nullptr;
}

// Finds the join node covering exactly `rels` (nullptr if none).
const PlanNode* FindJoinNode(const PlanNode& node, RelSet rels) {
  if (node.IsJoin() && node.rels == rels) return &node;
  for (const auto& child : node.children) {
    const PlanNode* found = FindJoinNode(*child, rels);
    if (found != nullptr) return found;
  }
  return nullptr;
}

int JoinOpToAction(PhysicalOp op) {
  switch (op) {
    case PhysicalOp::kNestedLoopJoin:
      return 0;
    case PhysicalOp::kIndexNestedLoopJoin:
      return 1;
    case PhysicalOp::kHashJoin:
      return 2;
    case PhysicalOp::kMergeJoin:
      return 3;
    default:
      HFQ_CHECK_MSG(false, "not a join op");
      return 0;
  }
}

PhysicalOp ActionToJoinOp(int action) {
  switch (action) {
    case 0:
      return PhysicalOp::kNestedLoopJoin;
    case 1:
      return PhysicalOp::kIndexNestedLoopJoin;
    case 2:
      return PhysicalOp::kHashJoin;
    case 3:
      return PhysicalOp::kMergeJoin;
    default:
      HFQ_CHECK_MSG(false, "bad join-op action");
      return PhysicalOp::kHashJoin;
  }
}

}  // namespace

PipelineStages PipelineStages::Prefix(int k) {
  PipelineStages s{false, false, false, false};
  if (k >= 1) s.join_order = true;
  if (k >= 2) s.access_paths = true;
  if (k >= 3) s.join_operators = true;
  if (k >= 4) s.aggregate_operator = true;
  return s;
}

FullPipelineEnv::FullPipelineEnv(RejoinFeaturizer* featurizer,
                                 TraditionalOptimizer* expert,
                                 FullEnvConfig config)
    : featurizer_(featurizer), expert_(expert), config_(config) {
  HFQ_CHECK(featurizer != nullptr && expert != nullptr);
}

void FullPipelineEnv::SetQuery(const Query* query) {
  HFQ_CHECK(query != nullptr);
  HFQ_CHECK(query->num_relations() <= featurizer_->max_relations());
  static std::atomic<uint64_t> next_query_id{1};
  query_ = query;
  query_id_ = next_query_id.fetch_add(1, std::memory_order_relaxed);
  stage_ = Stage::kDone;
}

int FullPipelineEnv::state_dim() const {
  const int n = featurizer_->max_relations();
  return featurizer_->FeatureDim() + 4 + 2 * n;
}

int FullPipelineEnv::action_dim() const {
  const int n = featurizer_->max_relations();
  return n * n;
}

void FullPipelineEnv::Reset() {
  HFQ_CHECK_MSG(query_ != nullptr, "SetQuery before Reset");
  const int n = query_->num_relations();
  subtrees_.clear();
  tree_.reset();
  internal_nodes_.clear();
  access_choice_.assign(static_cast<size_t>(n), -1);
  join_op_choice_.clear();
  agg_choice_ = -1;
  access_cursor_ = 0;
  join_op_cursor_ = 0;
  final_plan_.reset();

  if (n == 1 || !config_.stages.join_order) {
    if (n == 1) {
      tree_ = JoinTreeNode::Leaf(0);
    } else {
      // Expert supplies the join order; the agent decides later stages.
      auto expert_plan = expert_->Optimize(*query_);
      HFQ_CHECK_MSG(expert_plan.ok(), "expert failed to plan");
      tree_ = JoinTreeOf(**expert_plan);
    }
    internal_nodes_.clear();
    tree_->InternalNodesPostOrder(&internal_nodes_);
    join_op_choice_.assign(internal_nodes_.size(), -1);
    stage_ = Stage::kAccessPath;
  } else {
    for (int rel = 0; rel < n; ++rel) {
      subtrees_.push_back(JoinTreeNode::Leaf(rel));
    }
    stage_ = Stage::kJoinOrder;
  }
  SkipTrivialDecisions();
}

std::vector<int> FullPipelineEnv::ValidAccessActions(int rel) const {
  std::vector<int> valid = {0};
  if (PickIndexPredicate(rel, IndexKind::kBTree) >= 0) valid.push_back(1);
  if (PickIndexPredicate(rel, IndexKind::kHash) >= 0) valid.push_back(2);
  return valid;
}

int FullPipelineEnv::PickIndexPredicate(int rel, IndexKind kind) const {
  const auto& rel_ref = query_->relations[static_cast<size_t>(rel)];
  const Catalog* catalog = expert_->catalog();
  CardinalityEstimator* est = featurizer_->estimator();
  int best = -1;
  double best_sel = 2.0;
  for (int s : query_->SelectionsOn(rel)) {
    const auto& sel = query_->selections[static_cast<size_t>(s)];
    if (sel.op == CmpOp::kNe) continue;
    if (kind == IndexKind::kHash && sel.op != CmpOp::kEq) continue;
    if (catalog->FindIndex(rel_ref.table, sel.column.column, kind) ==
        nullptr) {
      continue;
    }
    double s_est = est->SelectionSelectivity(*query_, s);
    if (s_est < best_sel) {
      best_sel = s_est;
      best = s;
    }
  }
  return best;
}

std::vector<int> FullPipelineEnv::ValidJoinOpActions(
    const JoinTreeNode& node) const {
  std::vector<int> valid;
  std::vector<int> preds =
      query_->JoinPredsBetween(node.left->rels, node.right->rels);
  valid.push_back(0);  // NLJ always possible.
  if (preds.empty()) return valid;
  // INLJ: inner (right) must be a base relation with an index on one of the
  // join columns.
  if (node.right->IsLeaf()) {
    int inner_rel = node.right->rel_idx;
    const auto& rel_ref = query_->relations[static_cast<size_t>(inner_rel)];
    for (int pi : preds) {
      const auto& jp = query_->joins[static_cast<size_t>(pi)];
      const ColumnRef& inner_col =
          jp.left.rel_idx == inner_rel ? jp.left : jp.right;
      if (expert_->catalog()->FindIndex(rel_ref.table, inner_col.column,
                                        IndexKind::kHash) != nullptr ||
          expert_->catalog()->FindIndex(rel_ref.table, inner_col.column,
                                        IndexKind::kBTree) != nullptr) {
        valid.push_back(1);
        break;
      }
    }
  }
  valid.push_back(2);  // Hash.
  valid.push_back(3);  // Merge.
  std::sort(valid.begin(), valid.end());
  return valid;
}

void FullPipelineEnv::AdvanceStage() {
  switch (stage_) {
    case Stage::kJoinOrder:
      stage_ = Stage::kAccessPath;
      break;
    case Stage::kAccessPath:
      stage_ = Stage::kJoinOp;
      break;
    case Stage::kJoinOp:
      stage_ = Stage::kAggregate;
      break;
    case Stage::kAggregate:
      stage_ = Stage::kDone;
      break;
    case Stage::kDone:
      break;
  }
}

void FullPipelineEnv::SkipTrivialDecisions() {
  const int n = query_->num_relations();
  for (;;) {
    switch (stage_) {
      case Stage::kJoinOrder:
        if (subtrees_.size() > 1) return;  // Real decision pending.
        if (!subtrees_.empty()) {
          tree_ = std::move(subtrees_[0]);
          subtrees_.clear();
          internal_nodes_.clear();
          tree_->InternalNodesPostOrder(&internal_nodes_);
          join_op_choice_.assign(internal_nodes_.size(), -1);
        }
        AdvanceStage();
        break;
      case Stage::kAccessPath: {
        if (!config_.stages.access_paths) {
          access_cursor_ = n;
        }
        while (access_cursor_ < n &&
               ValidAccessActions(access_cursor_).size() <= 1) {
          ++access_cursor_;
        }
        if (access_cursor_ < n) return;
        AdvanceStage();
        break;
      }
      case Stage::kJoinOp: {
        if (!config_.stages.join_operators) {
          join_op_cursor_ = static_cast<int>(internal_nodes_.size());
        }
        while (join_op_cursor_ < static_cast<int>(internal_nodes_.size()) &&
               ValidJoinOpActions(*internal_nodes_[
                                      static_cast<size_t>(join_op_cursor_)])
                       .size() <= 1) {
          ++join_op_cursor_;
        }
        if (join_op_cursor_ < static_cast<int>(internal_nodes_.size())) {
          return;
        }
        AdvanceStage();
        break;
      }
      case Stage::kAggregate: {
        const bool has_agg =
            !query_->aggregates.empty() || !query_->group_by.empty();
        if (config_.stages.aggregate_operator && has_agg) return;
        AdvanceStage();
        break;
      }
      case Stage::kDone:
        final_plan_ = BuildPlan();
        return;
    }
  }
}

std::vector<double> FullPipelineEnv::StateVector() const {
  HFQ_CHECK(query_ != nullptr);
  const int n = featurizer_->max_relations();

  std::vector<const JoinTreeNode*> subtrees;
  if (stage_ == Stage::kJoinOrder) {
    for (const auto& t : subtrees_) subtrees.push_back(t.get());
  } else if (tree_ != nullptr) {
    subtrees.push_back(tree_.get());
  }
  feat_cache_.Bind(query_id_);
  std::vector<double> features =
      featurizer_->Featurize(*query_, subtrees, &feat_cache_);

  // Stage one-hot.
  std::vector<double> extra(static_cast<size_t>(4 + 2 * n), 0.0);
  int stage_idx = -1;
  switch (stage_) {
    case Stage::kJoinOrder:
      stage_idx = 0;
      break;
    case Stage::kAccessPath:
      stage_idx = 1;
      break;
    case Stage::kJoinOp:
      stage_idx = 2;
      break;
    case Stage::kAggregate:
      stage_idx = 3;
      break;
    case Stage::kDone:
      break;
  }
  if (stage_idx >= 0) extra[static_cast<size_t>(stage_idx)] = 1.0;

  // Decision-target encodings.
  if (stage_ == Stage::kAccessPath &&
      access_cursor_ < query_->num_relations()) {
    extra[static_cast<size_t>(4 + access_cursor_)] = 1.0;
  } else if (stage_ == Stage::kJoinOp &&
             join_op_cursor_ < static_cast<int>(internal_nodes_.size())) {
    const JoinTreeNode* node =
        internal_nodes_[static_cast<size_t>(join_op_cursor_)];
    for (int rel : RelSetMembers(node->left->rels)) {
      extra[static_cast<size_t>(4 + rel)] =
          1.0 / (1.0 + node->left->DepthOf(rel));
    }
    for (int rel : RelSetMembers(node->right->rels)) {
      extra[static_cast<size_t>(4 + n + rel)] =
          1.0 / (1.0 + node->right->DepthOf(rel));
    }
  }
  features.insert(features.end(), extra.begin(), extra.end());
  return features;
}

std::vector<bool> FullPipelineEnv::ActionMask() const {
  std::vector<bool> mask(static_cast<size_t>(action_dim()), false);
  if (Done()) return mask;
  const int n = featurizer_->max_relations();

  if (stage_ == Stage::kJoinOrder) {
    const int live = static_cast<int>(subtrees_.size());
    bool any_connected = false;
    for (int x = 0; x < live; ++x) {
      for (int y = 0; y < live; ++y) {
        if (x == y) continue;
        const bool connected = query_->HasJoinPredBetween(
            subtrees_[static_cast<size_t>(x)]->rels,
            subtrees_[static_cast<size_t>(y)]->rels);
        if (connected) {
          any_connected = true;
          mask[static_cast<size_t>(x * n + y)] = true;
        } else if (config_.allow_cross_products) {
          mask[static_cast<size_t>(x * n + y)] = true;
        }
      }
    }
    if (!any_connected && !config_.allow_cross_products) {
      for (int x = 0; x < live; ++x) {
        for (int y = 0; y < live; ++y) {
          if (x != y) mask[static_cast<size_t>(x * n + y)] = true;
        }
      }
    }
    return mask;
  }
  if (stage_ == Stage::kAccessPath) {
    for (int a : ValidAccessActions(access_cursor_)) {
      mask[static_cast<size_t>(a)] = true;
    }
    return mask;
  }
  if (stage_ == Stage::kJoinOp) {
    for (int a : ValidJoinOpActions(
             *internal_nodes_[static_cast<size_t>(join_op_cursor_)])) {
      mask[static_cast<size_t>(a)] = true;
    }
    return mask;
  }
  // Aggregate stage.
  mask[0] = true;
  mask[1] = true;
  return mask;
}

void FullPipelineEnv::Step(int action) {
  HFQ_CHECK(!Done());
  const int n = featurizer_->max_relations();

  switch (stage_) {
    case Stage::kJoinOrder: {
      int x = action / n;
      int y = action % n;
      const int live = static_cast<int>(subtrees_.size());
      HFQ_CHECK_MSG(x >= 0 && y >= 0 && x < live && y < live && x != y,
                    "invalid join-order action");
      int lo = std::min(x, y);
      int hi = std::max(x, y);
      auto left = std::move(subtrees_[static_cast<size_t>(x)]);
      auto right = std::move(subtrees_[static_cast<size_t>(y)]);
      subtrees_[static_cast<size_t>(lo)] =
          JoinTreeNode::Join(std::move(left), std::move(right));
      subtrees_.erase(subtrees_.begin() + hi);
      break;
    }
    case Stage::kAccessPath: {
      HFQ_CHECK_MSG(action >= 0 && action <= 2, "invalid access action");
      access_choice_[static_cast<size_t>(access_cursor_)] = action;
      ++access_cursor_;
      break;
    }
    case Stage::kJoinOp: {
      HFQ_CHECK_MSG(action >= 0 && action <= 3, "invalid join-op action");
      join_op_choice_[static_cast<size_t>(join_op_cursor_)] = action;
      ++join_op_cursor_;
      break;
    }
    case Stage::kAggregate: {
      HFQ_CHECK_MSG(action == 0 || action == 1, "invalid aggregate action");
      agg_choice_ = action;
      AdvanceStage();
      break;
    }
    case Stage::kDone:
      HFQ_CHECK_MSG(false, "Step after Done");
  }

  SkipTrivialDecisions();
}

bool FullPipelineEnv::Done() const {
  return stage_ == Stage::kDone && final_plan_ != nullptr;
}

std::unique_ptr<SearchEnv> FullPipelineEnv::CloneSearch() const {
  auto clone =
      std::make_unique<FullPipelineEnv>(featurizer_, expert_, config_);
  clone->query_ = query_;
  clone->query_id_ = query_id_;
  clone->stage_ = stage_;
  clone->subtrees_.reserve(subtrees_.size());
  for (const auto& tree : subtrees_) {
    clone->subtrees_.push_back(tree->Clone());
  }
  if (tree_ != nullptr) {
    clone->tree_ = tree_->Clone();
    // Recomputing the post-order yields the same node sequence as the
    // original tree's, so join_op_choice_ indices keep their meaning.
    clone->tree_->InternalNodesPostOrder(&clone->internal_nodes_);
  }
  clone->access_choice_ = access_choice_;
  clone->join_op_choice_ = join_op_choice_;
  clone->agg_choice_ = agg_choice_;
  clone->access_cursor_ = access_cursor_;
  clone->join_op_cursor_ = join_op_cursor_;
  if (final_plan_ != nullptr) clone->final_plan_ = final_plan_->Clone();
  return clone;
}

bool FullPipelineEnv::TryCopySearchStateFrom(const SearchEnv& other) {
  const auto* src = dynamic_cast<const FullPipelineEnv*>(&other);
  if (src == nullptr || src == this) return false;
  // Full copy, wiring included, so a pooled env from any earlier search is
  // reusable — only the vectors' capacities survive from this object.
  // Equivalent to CloneSearch into existing storage.
  featurizer_ = src->featurizer_;
  expert_ = src->expert_;
  config_ = src->config_;
  query_ = src->query_;
  query_id_ = src->query_id_;
  stage_ = src->stage_;
  subtrees_.clear();
  subtrees_.reserve(src->subtrees_.size());
  for (const auto& tree : src->subtrees_) {
    subtrees_.push_back(tree->Clone());
  }
  internal_nodes_.clear();
  if (src->tree_ != nullptr) {
    tree_ = src->tree_->Clone();
    // Recomputing the post-order yields the same node sequence as the
    // source tree's, so join_op_choice_ indices keep their meaning.
    tree_->InternalNodesPostOrder(&internal_nodes_);
  } else {
    tree_.reset();
  }
  access_choice_ = src->access_choice_;
  join_op_choice_ = src->join_op_choice_;
  agg_choice_ = src->agg_choice_;
  access_cursor_ = src->access_cursor_;
  join_op_cursor_ = src->join_op_cursor_;
  final_plan_ =
      src->final_plan_ != nullptr ? src->final_plan_->Clone() : nullptr;
  return true;
}

double FullPipelineEnv::FinalCost() const {
  return FinalPlan()->est_cost;
}

const PlanNode* FullPipelineEnv::FinalPlan() const {
  HFQ_CHECK(final_plan_ != nullptr);
  return final_plan_.get();
}

PlanNodePtr FullPipelineEnv::BuildScan(int rel) const {
  int choice = access_choice_[static_cast<size_t>(rel)];
  if (choice < 0) return expert_->BestAccessPath(*query_, rel);
  std::vector<int> sels = query_->SelectionsOn(rel);
  PlanNodePtr scan;
  if (choice == 0) {
    scan = MakeSeqScan(rel, sels);
  } else {
    IndexKind kind = choice == 1 ? IndexKind::kBTree : IndexKind::kHash;
    int pred = PickIndexPredicate(rel, kind);
    HFQ_CHECK_MSG(pred >= 0, "index choice without eligible predicate");
    std::vector<int> residual;
    for (int s : sels) {
      if (s != pred) residual.push_back(s);
    }
    const auto& sel = query_->selections[static_cast<size_t>(pred)];
    scan = MakeIndexScan(rel, kind, sel.column.column, pred, residual);
  }
  expert_->cost_model()->Annotate(*query_, scan.get());
  return scan;
}

PlanNodePtr FullPipelineEnv::BuildJoinNode(const JoinTreeNode& node,
                                           PlanNodePtr left,
                                           PlanNodePtr right,
                                           int decision_idx) {
  int choice = join_op_choice_[static_cast<size_t>(decision_idx)];
  if (choice < 0) {
    return expert_->BestJoin(*query_, std::move(left), std::move(right));
  }
  std::vector<int> preds =
      query_->JoinPredsBetween(node.left->rels, node.right->rels);
  PhysicalOp op = ActionToJoinOp(choice);
  PlanNodePtr join;
  if (op == PhysicalOp::kIndexNestedLoopJoin) {
    HFQ_CHECK(right->IsScan());
    int inner_rel = right->rel_idx;
    const auto& rel_ref = query_->relations[static_cast<size_t>(inner_rel)];
    int probe_pred = -1;
    IndexKind probe_kind = IndexKind::kHash;
    for (int pi : preds) {
      const auto& jp = query_->joins[static_cast<size_t>(pi)];
      const ColumnRef& inner_col =
          jp.left.rel_idx == inner_rel ? jp.left : jp.right;
      if (expert_->catalog()->FindIndex(rel_ref.table, inner_col.column,
                                        IndexKind::kHash) != nullptr) {
        probe_pred = pi;
        probe_kind = IndexKind::kHash;
        break;
      }
      if (expert_->catalog()->FindIndex(rel_ref.table, inner_col.column,
                                        IndexKind::kBTree) != nullptr) {
        probe_pred = pi;
        probe_kind = IndexKind::kBTree;
        break;
      }
    }
    HFQ_CHECK_MSG(probe_pred >= 0, "INLJ choice without index");
    // Convert the inner to a plain filtered probe scan.
    std::vector<int> all_sels = right->filter_sel_idxs;
    if (right->index_sel_idx >= 0) all_sels.push_back(right->index_sel_idx);
    PlanNodePtr probe_scan = MakeSeqScan(inner_rel, all_sels);
    probe_scan->index_kind = probe_kind;
    expert_->cost_model()->Annotate(*query_, probe_scan.get());
    join = MakeJoin(op, std::move(left), std::move(probe_scan), preds,
                    probe_pred);
  } else {
    join = MakeJoin(op, std::move(left), std::move(right), preds);
  }
  // Annotate this node (children already annotated).
  CostModel* cm = expert_->cost_model();
  const PlanNode* outer = join->child(0);
  const PlanNode* inner = join->child(1);
  join->est_rows = cm->cards()->Rows(*query_, join->rels);
  join->est_cost = cm->JoinCost(
      *query_, op, outer->est_rows, outer->est_cost, inner->est_rows,
      inner->est_cost, join->est_rows,
      op == PhysicalOp::kIndexNestedLoopJoin);
  return join;
}

PlanNodePtr FullPipelineEnv::BuildPlan() {
  HFQ_CHECK(tree_ != nullptr);
  int decision_idx = 0;
  // Post-order build matching internal_nodes_ ordering.
  struct Builder {
    FullPipelineEnv* env;
    int* decision_idx;
    PlanNodePtr Build(const JoinTreeNode& node) {
      if (node.IsLeaf()) return env->BuildScan(node.rel_idx);
      PlanNodePtr left = Build(*node.left);
      PlanNodePtr right = Build(*node.right);
      int idx = (*decision_idx)++;
      return env->BuildJoinNode(node, std::move(left), std::move(right), idx);
    }
  };
  Builder builder{this, &decision_idx};
  PlanNodePtr plan = builder.Build(*tree_);

  const bool has_agg =
      !query_->aggregates.empty() || !query_->group_by.empty();
  if (has_agg) {
    if (agg_choice_ < 0) {
      plan = expert_->AddAggregateIfNeeded(*query_, std::move(plan));
    } else {
      PhysicalOp op = agg_choice_ == 0 ? PhysicalOp::kHashAggregate
                                       : PhysicalOp::kSortAggregate;
      plan = MakeAggregate(op, std::move(plan));
      expert_->cost_model()->Annotate(*query_, plan.get());
    }
  }
  return plan;
}

Result<Episode> FullPipelineEnv::ExpertEpisode(const Query& query,
                                               const PlanNode& expert_plan) {
  SetQuery(&query);
  Reset();
  Episode episode;

  // Expert's logical tree and its internal nodes in post-order.
  std::unique_ptr<JoinTreeNode> expert_tree = JoinTreeOf(expert_plan);
  std::vector<const JoinTreeNode*> expert_internal;
  expert_tree->InternalNodesPostOrder(&expert_internal);
  size_t next_internal = 0;

  while (!Done()) {
    Transition t;
    t.state = StateVector();
    t.mask = ActionMask();
    int action = -1;
    const int n = featurizer_->max_relations();

    switch (stage_) {
      case Stage::kJoinOrder: {
        if (next_internal >= expert_internal.size()) {
          return Status::Internal("expert tree exhausted during replay");
        }
        const JoinTreeNode* target = expert_internal[next_internal++];
        int x = -1, y = -1;
        for (size_t i = 0; i < subtrees_.size(); ++i) {
          if (subtrees_[i]->rels == target->left->rels) {
            x = static_cast<int>(i);
          }
          if (subtrees_[i]->rels == target->right->rels) {
            y = static_cast<int>(i);
          }
        }
        if (x < 0 || y < 0) {
          return Status::Internal("expert join not reachable in env state");
        }
        action = x * n + y;
        break;
      }
      case Stage::kAccessPath: {
        const PlanNode* scan = FindScanNode(expert_plan, access_cursor_);
        if (scan == nullptr) {
          return Status::Internal("expert plan missing scan node");
        }
        if (scan->op == PhysicalOp::kIndexScan) {
          action = scan->index_kind == IndexKind::kBTree ? 1 : 2;
        } else {
          action = 0;
        }
        // The expert may pick an index the env considers ineligible only if
        // catalogs diverge; fall back to seq scan in that case.
        if (!t.mask[static_cast<size_t>(action)]) action = 0;
        break;
      }
      case Stage::kJoinOp: {
        const JoinTreeNode* node =
            internal_nodes_[static_cast<size_t>(join_op_cursor_)];
        const PlanNode* join = FindJoinNode(expert_plan, node->rels);
        if (join == nullptr) {
          return Status::Internal("expert plan missing join node");
        }
        action = JoinOpToAction(join->op);
        if (!t.mask[static_cast<size_t>(action)]) {
          action = 2;  // Hash join: always valid when predicates exist.
          if (!t.mask[2]) action = 0;
        }
        break;
      }
      case Stage::kAggregate: {
        const PlanNode* root = &expert_plan;
        action = root->op == PhysicalOp::kSortAggregate ? 1 : 0;
        break;
      }
      case Stage::kDone:
        return Status::Internal("stepped past Done in expert replay");
    }

    // Record the mask with the expert action forced valid (forced cross
    // products can otherwise be masked).
    if (!t.mask[static_cast<size_t>(action)]) {
      t.mask[static_cast<size_t>(action)] = true;
    }
    t.action = action;
    t.old_prob = 1.0;
    Step(action);
    t.reward = 0.0;  // Outcomes are attached by the caller.
    episode.steps.push_back(std::move(t));
  }
  return episode;
}

}  // namespace hfq
