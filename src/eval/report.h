// The machine-readable evaluation report: per-cell and aggregate regret
// statistics, serialized as JSON (schema kEvalReportSchema, documented in
// the README's Evaluation harness section). This is the artifact that
// seeds the BENCH_*.json trajectory and that the golden regression gates
// in tests/eval_test.cc consume.
#ifndef HFQ_EVAL_REPORT_H_
#define HFQ_EVAL_REPORT_H_

#include <string>
#include <vector>

#include "eval/regret.h"
#include "eval/scenario.h"
#include "util/status.h"

namespace hfq {

/// Everything measured for one matrix cell.
struct CellResult {
  ScenarioCell cell;
  /// Raw per-query rows for search mode 0, in generation order.
  std::vector<HandsFreeOptimizer::QueryEvaluation> rows;
  PlannerStats learned;  ///< The learned planner under search mode 0.
  /// Whether the exhaustive-DP baseline ran for this cell. False on the
  /// DP-infeasible band, where `dp` is default-initialized and the cell
  /// is scored against GEQO.
  bool has_dp = true;
  PlannerStats dp;
  PlannerStats geqo;
  /// Learned-planner results under each *additional* search mode
  /// (config.search_modes[1..]; mode 0 is `rows`/`learned` above).
  /// more_rows[m] copies the DP/GEQO columns of `rows` — only the
  /// learned_* fields differ.
  std::vector<std::vector<HandsFreeOptimizer::QueryEvaluation>> more_rows;
  std::vector<PlannerStats> more_search;
};

/// One full harness run.
struct EvalReport {
  EvalConfig config;
  std::vector<CellResult> cells;
  /// Aggregates over every query of every cell (cell order).
  PlannerStats agg_learned;
  PlannerStats agg_dp;
  PlannerStats agg_geqo;
  /// Aggregates for the additional search modes (parallel to
  /// config.search_modes[1..]).
  std::vector<PlannerStats> agg_more_search;
  /// Wall-clock (timings section only).
  double train_ms = 0.0;
  double total_ms = 0.0;
};

/// The one report layout's schema name.
inline constexpr char kEvalReportSchema[] = "hfq-eval-v4";

/// Serializes with a stable field order and %.17g doubles, so two runs
/// with identical stats produce identical bytes. Layout: `schema`; a
/// `config` echo carrying every EvalConfig field that can change the
/// stats (execution knobs — num_workers, include_timings — are not
/// echoed); `cells`, each with its coordinates and a `planners` map; and
/// the `aggregate` planner map. A planner map holds "learned" (search
/// mode 0), "dp", "geqo" and one "learned:<mode>" per further search
/// mode. Sections appear only when their data exists: "dp" only where
/// DP ran (its absence means the cell is scored against GEQO, and the
/// aggregate "dp" covers only the rows where DP ran), the exec_regret /
/// num_exec / mean_exec_ms fields only on measured runs, and the
/// mean_planning_ms fields plus the `timings` section only when
/// `include_timings` is set — leave it off when the bytes must be
/// deterministic.
std::string ReportToJson(const EvalReport& report, bool include_timings);

/// ReportToJson to a file.
Status WriteReportJson(const std::string& path, const EvalReport& report,
                       bool include_timings);

}  // namespace hfq

#endif  // HFQ_EVAL_REPORT_H_
