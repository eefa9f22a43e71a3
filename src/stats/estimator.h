// The System-R style cardinality estimator: histogram selectivities with
// independence assumptions across predicates and 1/max(V) equi-join
// selectivity. Deliberately inherits the classical weaknesses (correlation
// blindness, skew-averaging) the paper leans on.
#ifndef HFQ_STATS_ESTIMATOR_H_
#define HFQ_STATS_ESTIMATOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>

#include "catalog/catalog.h"
#include "stats/cardinality.h"
#include "stats/table_stats.h"

namespace hfq {

/// Histogram-based estimates. Memoizes per (query name, structural
/// fingerprint, relset) so repeated optimizer probes are cheap, like
/// TrueCardinalityOracle: a name reused for another structure gets its own
/// entries, and two queries share estimates only when both name and
/// fingerprint agree.
///
/// Thread-safe: the memo is internally synchronized so concurrent rollout
/// workers can share one estimator (the backing Catalog/StatsCatalog are
/// immutable after construction).
class CardinalityEstimator : public CardinalitySource {
 public:
  /// `catalog` and `stats` must outlive the estimator.
  CardinalityEstimator(const Catalog* catalog, const StatsCatalog* stats);

  double Rows(const Query& query, RelSet s) override;
  double BaseRows(const Query& query, int rel) override;
  double GroupRows(const Query& query) override;
  double RowsWithSelections(const Query& query, int rel,
                            const std::vector<int>& sel_idxs) override;

  /// Selectivity of one selection predicate (exposed for featurization:
  /// learned agents receive estimated selectivities as state input).
  double SelectionSelectivity(const Query& query, int sel_idx) const;

  /// Selectivity of one join predicate.
  double JoinSelectivity(const Query& query, int join_idx) const;

  /// Drops the memo (call when switching workloads to bound memory).
  void ClearCache();

 private:
  const ColumnStats* StatsFor(const Query& query, const ColumnRef& ref) const;

  /// Rows with mu_ already held (lets GroupRows reuse it re-entrantly).
  double RowsLocked(const Query& query, RelSet s);

  const Catalog* catalog_;
  const StatsCatalog* stats_;
  std::mutex mu_;
  /// (query name, structural fingerprint, relset) -> estimated rows.
  std::map<std::tuple<std::string, uint64_t, RelSet>, double> cache_;
};

}  // namespace hfq

#endif  // HFQ_STATS_ESTIMATOR_H_
