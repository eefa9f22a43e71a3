#include "stats/estimator.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace hfq {

CardinalityEstimator::CardinalityEstimator(const Catalog* catalog,
                                           const StatsCatalog* stats)
    : catalog_(catalog), stats_(stats) {
  HFQ_CHECK(catalog != nullptr && stats != nullptr);
}

const ColumnStats* CardinalityEstimator::StatsFor(
    const Query& query, const ColumnRef& ref) const {
  const auto& rel = query.relations[static_cast<size_t>(ref.rel_idx)];
  return stats_->FindColumn(rel.table, ref.column);
}

double CardinalityEstimator::SelectionSelectivity(const Query& query,
                                                  int sel_idx) const {
  const auto& sel = query.selections[static_cast<size_t>(sel_idx)];
  const ColumnStats* cs = StatsFor(query, sel.column);
  if (cs == nullptr) return 0.33;  // Default guess, Postgres-style.
  return cs->EstimateSelectivity(sel.op, sel.value.AsDouble());
}

double CardinalityEstimator::JoinSelectivity(const Query& query,
                                             int join_idx) const {
  const auto& join = query.joins[static_cast<size_t>(join_idx)];
  const ColumnStats* left = StatsFor(query, join.left);
  const ColumnStats* right = StatsFor(query, join.right);
  if (left == nullptr || right == nullptr) return 0.005;
  return left->EstimateJoinSelectivity(*right);
}

double CardinalityEstimator::BaseRows(const Query& query, int rel) {
  const auto& r = query.relations[static_cast<size_t>(rel)];
  auto table = stats_->GetTable(r.table);
  if (!table.ok()) return 1.0;
  return static_cast<double>((*table)->num_rows);
}

double CardinalityEstimator::Rows(const Query& query, RelSet s) {
  std::lock_guard<std::mutex> lock(mu_);
  return RowsLocked(query, s);
}

double CardinalityEstimator::RowsLocked(const Query& query, RelSet s) {
  HFQ_CHECK(s != 0);
  // Always hash: an address-based fast path would be defeated by stack
  // reuse (a loop building same-named variants at one address).
  auto key = std::make_tuple(query.name, query.StructuralFingerprint(), s);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  // Textbook formula: product of filtered base cardinalities times the
  // selectivity of every join predicate internal to the subset. Tree-shape
  // independent by construction.
  double rows = 1.0;
  for (int rel : RelSetMembers(s)) {
    double base = BaseRows(query, rel);
    double sel = 1.0;
    for (int sel_idx : query.SelectionsOn(rel)) {
      sel *= SelectionSelectivity(query, sel_idx);
    }
    rows *= std::max(1.0, base * sel);
  }
  for (size_t j = 0; j < query.joins.size(); ++j) {
    const auto& join = query.joins[j];
    if (RelSetHas(s, join.left.rel_idx) && RelSetHas(s, join.right.rel_idx)) {
      rows *= JoinSelectivity(query, static_cast<int>(j));
    }
  }
  rows = std::max(1.0, rows);
  cache_[key] = rows;
  return rows;
}

double CardinalityEstimator::RowsWithSelections(
    const Query& query, int rel, const std::vector<int>& sel_idxs) {
  double rows = BaseRows(query, rel);
  for (int s : sel_idxs) rows *= SelectionSelectivity(query, s);
  return std::max(1.0, rows);
}

double CardinalityEstimator::GroupRows(const Query& query) {
  if (query.group_by.empty()) return 1.0;
  double total;
  {
    std::lock_guard<std::mutex> lock(mu_);
    total = RowsLocked(query, RelSetAll(query.num_relations()));
  }
  double distinct = 1.0;
  for (const auto& g : query.group_by) {
    const ColumnStats* cs = StatsFor(query, g);
    distinct *= cs == nullptr ? 10.0
                              : std::max<double>(
                                    1.0, static_cast<double>(cs->num_distinct));
  }
  return std::max(1.0, std::min(distinct, total));
}

void CardinalityEstimator::ClearCache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
}

}  // namespace hfq
