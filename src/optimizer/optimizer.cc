#include "optimizer/optimizer.h"

#include <algorithm>

#include "util/check.h"

namespace hfq {

TraditionalOptimizer::TraditionalOptimizer(const Catalog* catalog,
                                           CostModel* cost_model,
                                           OptimizerOptions options)
    : catalog_(catalog), cost_model_(cost_model), options_(options) {
  HFQ_CHECK(catalog != nullptr && cost_model != nullptr);
}

JoinInput TraditionalOptimizer::JoinInputOf(const PlanNode& node) {
  return JoinInput{node.est_rows, node.est_cost,
                   node.IsScan() ? node.rel_idx : -1};
}

std::vector<PlanNodePtr>& TraditionalOptimizer::AccessEntryLocked(
    const Query& query) {
  // Always hash: an address fast path would be defeated by stack reuse of
  // same-named variants.
  auto [it, inserted] = access_cache_.try_emplace(
      std::make_pair(query.name, query.StructuralFingerprint()));
  if (inserted) it->second.resize(static_cast<size_t>(query.num_relations()));
  return it->second;
}

PlanNodePtr TraditionalOptimizer::BestAccessPath(const Query& query,
                                                 int rel) {
  std::lock_guard<std::mutex> lock(access_mu_);
  PlanNodePtr& proto = AccessEntryLocked(query)[static_cast<size_t>(rel)];
  if (proto == nullptr) proto = ComputeBestAccessPath(query, rel);
  return proto->Clone();
}

void TraditionalOptimizer::ClearAccessPathCache() {
  std::lock_guard<std::mutex> lock(access_mu_);
  access_cache_.clear();
}

PlanNodePtr TraditionalOptimizer::ComputeBestAccessPath(const Query& query,
                                                        int rel) {
  std::vector<int> sels = query.SelectionsOn(rel);
  PlanNodePtr best = MakeSeqScan(rel, sels);
  cost_model_->Annotate(query, best.get());

  if (!options_.enable_indexscan) return best;
  const auto& rel_ref = query.relations[static_cast<size_t>(rel)];
  for (size_t i = 0; i < sels.size(); ++i) {
    const auto& sel = query.selections[static_cast<size_t>(sels[i])];
    // Residual filters: every selection except the indexed one.
    std::vector<int> residual;
    for (size_t j = 0; j < sels.size(); ++j) {
      if (j != i) residual.push_back(sels[j]);
    }
    for (IndexKind kind : {IndexKind::kBTree, IndexKind::kHash}) {
      if (kind == IndexKind::kHash && sel.op != CmpOp::kEq) continue;
      if (sel.op == CmpOp::kNe) continue;  // Indexes cannot serve <>.
      if (catalog_->FindIndex(rel_ref.table, sel.column.column, kind) ==
          nullptr) {
        continue;
      }
      PlanNodePtr candidate = MakeIndexScan(rel, kind, sel.column.column,
                                            sels[i], residual);
      cost_model_->Annotate(query, candidate.get());
      if (candidate->est_cost < best->est_cost) best = std::move(candidate);
    }
  }
  return best;
}

PlanNodePtr TraditionalOptimizer::BestJoin(const Query& query,
                                           PlanNodePtr outer,
                                           PlanNodePtr inner) {
  HFQ_CHECK(outer != nullptr && inner != nullptr);
  std::vector<int> preds =
      query.JoinPredsBetween(outer->rels, inner->rels);
  const double out_rows =
      cost_model_->cards()->Rows(query, outer->rels | inner->rels);
  const JoinChoice choice = ChooseJoin(query, preds, out_rows,
                                       JoinInputOf(*outer),
                                       JoinInputOf(*inner));
  return BuildJoin(query, choice, std::move(preds), out_rows,
                   std::move(outer), std::move(inner));
}

JoinChoice TraditionalOptimizer::ChooseJoin(const Query& query,
                                            const std::vector<int>& preds,
                                            double out_rows,
                                            const JoinInput& outer,
                                            const JoinInput& inner) const {
  JoinChoice best;
  bool any = false;
  auto add = [&](PhysicalOp op, int probe_pred, IndexKind kind) {
    const double cost = cost_model_->JoinCost(
        query, op, outer.rows, outer.cost, inner.rows, inner.cost, out_rows,
        op == PhysicalOp::kIndexNestedLoopJoin);
    if (!any || cost < best.cost) best = JoinChoice{op, probe_pred, kind, cost};
    any = true;
  };

  if (options_.enable_nestloop || preds.empty()) {
    // Like PostgreSQL's enable_nestloop, disabling is advisory: a cross
    // product has no other executable operator, so NLJ stays available.
    add(PhysicalOp::kNestedLoopJoin, -1, {});
  }
  if (!preds.empty()) {
    if (options_.enable_hashjoin) add(PhysicalOp::kHashJoin, -1, {});
    if (options_.enable_mergejoin) add(PhysicalOp::kMergeJoin, -1, {});
    if (options_.enable_indexnestloop && inner.scan_rel >= 0) {
      const auto& inner_rel =
          query.relations[static_cast<size_t>(inner.scan_rel)];
      for (int pi : preds) {
        const auto& jp = query.joins[static_cast<size_t>(pi)];
        const ColumnRef& inner_key =
            jp.left.rel_idx == inner.scan_rel ? jp.left : jp.right;
        for (IndexKind kind : {IndexKind::kHash, IndexKind::kBTree}) {
          if (catalog_->FindIndex(inner_rel.table, inner_key.column, kind) !=
              nullptr) {
            add(PhysicalOp::kIndexNestedLoopJoin, pi, kind);
            break;  // One index suffices per predicate.
          }
        }
      }
    }
  }
  HFQ_CHECK_MSG(any, "all join operators disabled; cannot plan");
  return best;
}

PlanNodePtr TraditionalOptimizer::BuildJoin(const Query& query,
                                            const JoinChoice& choice,
                                            std::vector<int> preds,
                                            double out_rows,
                                            PlanNodePtr outer,
                                            PlanNodePtr inner) {
  if (choice.op == PhysicalOp::kIndexNestedLoopJoin) {
    // INLJ probes the inner base table directly; turn the inner into a
    // plain filtered scan (never scanned wholesale) and remember the index.
    std::vector<int> all_sels = inner->filter_sel_idxs;
    if (inner->index_sel_idx >= 0) all_sels.push_back(inner->index_sel_idx);
    PlanNodePtr probe_scan = MakeSeqScan(inner->rel_idx, all_sels);
    probe_scan->index_kind = choice.inner_index_kind;
    cost_model_->Annotate(query, probe_scan.get());
    inner = std::move(probe_scan);
  }
  PlanNodePtr join = MakeJoin(choice.op, std::move(outer), std::move(inner),
                              std::move(preds), choice.probe_pred);
  // Children are already annotated; fill this node's fields directly.
  join->est_rows = out_rows;
  join->est_cost = choice.cost;
  return join;
}

PlanNodePtr TraditionalOptimizer::AddAggregateIfNeeded(const Query& query,
                                                       PlanNodePtr input) {
  if (query.aggregates.empty() && query.group_by.empty()) return input;
  // Price both operators on top of the one already-annotated input —
  // no input clone, no re-annotation of the finished subtree (the old
  // clone-and-Annotate form re-asked the estimator for every node below,
  // twice). AnnotateAggregateTop computes the same values Annotate would.
  PlanNodePtr agg = MakeAggregate(PhysicalOp::kHashAggregate,
                                  std::move(input));
  const double hash_cost = cost_model_->AnnotateAggregateTop(query,
                                                             agg.get());
  agg->op = PhysicalOp::kSortAggregate;
  const double sort_cost = cost_model_->AnnotateAggregateTop(query,
                                                             agg.get());
  if (hash_cost <= sort_cost) {
    agg->op = PhysicalOp::kHashAggregate;
    cost_model_->AnnotateAggregateTop(query, agg.get());
  }
  return agg;
}

Result<PlanNodePtr> TraditionalOptimizer::PhysicalizeJoinTree(
    const Query& query, const JoinTreeNode& tree) {
  if (tree.IsLeaf()) {
    PlanNodePtr scan = BestAccessPath(query, tree.rel_idx);
    return AddAggregateIfNeeded(query, std::move(scan));
  }
  // All leaf access paths in one memo pass: a single lock + query hash
  // instead of one per relation (plan search physicalizes many candidate
  // trees per query, so this path is hot).
  std::vector<PlanNodePtr> access(
      static_cast<size_t>(query.num_relations()));
  {
    std::lock_guard<std::mutex> lock(access_mu_);
    std::vector<PlanNodePtr>& per_rel = AccessEntryLocked(query);
    for (int rel : RelSetMembers(tree.rels)) {
      PlanNodePtr& proto = per_rel[static_cast<size_t>(rel)];
      if (proto == nullptr) proto = ComputeBestAccessPath(query, rel);
      access[static_cast<size_t>(rel)] = proto->Clone();
    }
  }
  // Recursively physicalize children, then pick the join operator with the
  // given orientation (left = outer, right = inner, as the agent chose).
  struct Builder {
    TraditionalOptimizer* opt;
    const Query& query;
    std::vector<PlanNodePtr>& access;
    PlanNodePtr Build(const JoinTreeNode& node) {
      if (node.IsLeaf()) {
        return std::move(access[static_cast<size_t>(node.rel_idx)]);
      }
      PlanNodePtr left = Build(*node.left);
      PlanNodePtr right = Build(*node.right);
      return opt->BestJoin(query, std::move(left), std::move(right));
    }
  };
  Builder builder{this, query, access};
  PlanNodePtr plan = builder.Build(tree);
  return AddAggregateIfNeeded(query, std::move(plan));
}

Result<PlanNodePtr> TraditionalOptimizer::Optimize(const Query& query) {
  if (query.num_relations() == 0) {
    return Status::InvalidArgument("query has no relations");
  }
  if (query.num_relations() == 1) {
    PlanNodePtr scan = BestAccessPath(query, 0);
    return AddAggregateIfNeeded(query, std::move(scan));
  }
  PlanNodePtr joined;
  if (query.num_relations() <= options_.geqo_threshold) {
    Result<PlanNodePtr> dp = EnumerateDp(query);
    if (dp.ok()) {
      joined = std::move(dp).value();
    } else if (dp.status().code() == StatusCode::kResourceExhausted) {
      // The join graph blew the DP subproblem budget (dense graph at a
      // size the threshold admits): degrade gracefully to genetic search
      // rather than failing the query.
      HFQ_ASSIGN_OR_RETURN(joined, EnumerateGeqo(query));
    } else {
      return dp.status();
    }
  } else {
    HFQ_ASSIGN_OR_RETURN(joined, EnumerateGeqo(query));
  }
  return AddAggregateIfNeeded(query, std::move(joined));
}

}  // namespace hfq
