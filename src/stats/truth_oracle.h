// TrueCardinalityOracle: exact cardinalities for any subset of a query's
// relations, computed against the materialized data. This is what stands in
// for "run the plan and observe it" — it lets the latency simulator charge
// catastrophically bad plans their true (astronomical) work without
// wall-clock cost, which is precisely the capability the paper says real
// execution lacks (Section 4, "Performance Evaluation Overhead").
//
// Algorithm: connected components of the subset multiply (cross products are
// exact products); each connected component is counted by a grouped
// hash-join sweep that keeps, instead of materialized tuples, a map from
// "interface columns still needed by future joins" to multiplicities. State
// size is bounded by the distinct interface-value combinations, not by the
// (possibly enormous) intermediate row count.
#ifndef HFQ_STATS_TRUTH_ORACLE_H_
#define HFQ_STATS_TRUTH_ORACLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "plan/query.h"
#include "stats/cardinality.h"
#include "storage/database.h"
#include "util/status.h"

namespace hfq {

/// Exact cardinalities from data. Memoizes per (query name, structural
/// fingerprint, relset or relation): a name reused for another structure
/// gets its own entries, and two queries share counts only when both name
/// and fingerprint agree. Each public entry hashes the query once.
///
/// Thread-safe: all memo state is guarded by one internal lock, so
/// concurrent rollout workers (whose latency simulations all consult this
/// oracle) can share a single instance. Uncached counts serialize — the
/// memo makes repeat queries cheap either way.
class TrueCardinalityOracle : public CardinalitySource {
 public:
  struct Options {
    Options() {}
    /// Cap on grouped-state entries; above this the count falls back to the
    /// cross-product upper bound (conservatively huge — still "catastrophic"
    /// for any consumer).
    uint64_t max_group_entries = 4u * 1000u * 1000u;
  };

  /// `db` must outlive the oracle.
  explicit TrueCardinalityOracle(const Database* db,
                                 Options options = Options());

  double Rows(const Query& query, RelSet s) override;
  double BaseRows(const Query& query, int rel) override;
  double GroupRows(const Query& query) override;
  double RowsWithSelections(const Query& query, int rel,
                            const std::vector<int>& sel_idxs) override;

  /// Row ids of `rel` passing all its selection predicates (cached).
  const std::vector<int64_t>& SelectedRows(const Query& query, int rel);

  /// Exact count for a connected component; exposed for testing.
  Result<double> CountConnectedExact(const Query& query, RelSet component);

 private:
  // The bodies of the public entries, run under mu_ with the query's
  // structural fingerprint `fp` computed once by the public caller (the
  // component sweep reads selected rows O(n^2) times per query).
  double RowsLocked(const Query& query, uint64_t fp, RelSet s);
  Result<double> CountConnectedLocked(const Query& query, uint64_t fp,
                                      RelSet component);
  double CountComponentLocked(const Query& query, uint64_t fp,
                              RelSet component);
  const std::vector<int64_t>& SelectedRowsLocked(const Query& query,
                                                 uint64_t fp, int rel);

  const Database* db_;
  Options options_;
  std::mutex mu_;
  // Memos keyed by (query name, structural fingerprint, ...).
  std::map<std::tuple<std::string, uint64_t, int>, std::vector<int64_t>>
      selected_cache_;
  std::map<std::tuple<std::string, uint64_t, RelSet>, double> count_cache_;
  std::map<std::pair<std::string, uint64_t>, double> group_cache_;
};

}  // namespace hfq

#endif  // HFQ_STATS_TRUTH_ORACLE_H_
