// Regret statistics against the row's baseline tier
// (QueryEvaluation::baseline_*): exhaustive DP where it ran, GEQO on
// DP-infeasible large-join rows. "Regret" of a planner on one query is
// metric(planner) / metric(baseline) - 1, computed separately for
// cost-model cost (where a DP baseline is optimal by construction, so
// regret is >= 0 up to fp noise) and for simulated latency (where the
// learned optimizer CAN go negative — the paper's central claim is
// exploiting the cost model's systemic disagreement with reality).
#ifndef HFQ_EVAL_REGRET_H_
#define HFQ_EVAL_REGRET_H_

#include <vector>

#include "core/hands_free.h"

namespace hfq {

/// Distribution summary of one regret sample set.
struct SummaryStats {
  double mean = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  double max = 0.0;

  /// Computes the summary (empty input → all zeros). p95 is the nearest-
  /// rank percentile of the sorted sample.
  static SummaryStats Of(std::vector<double> values);
};

/// Which planner of a QueryEvaluation row to summarize.
enum class Planner { kLearned, kDp, kGeqo };

/// "learned" / "dp" / "geqo".
const char* PlannerName(Planner planner);

/// Everything the report carries per (cell or aggregate, planner).
struct PlannerStats {
  int num_queries = 0;
  SummaryStats cost_regret;
  SummaryStats latency_regret;
  /// Fraction of queries where the planner's metric is <= the baseline's
  /// (ties win; the baseline planner's own win rates are exactly 1).
  double win_rate_cost = 0.0;
  double win_rate_latency = 0.0;
  /// Wall-clock; excluded from deterministic reports.
  double mean_planning_ms = 0.0;
  /// Measured execution (rows with exec_ran where this planner's plan was
  /// the one executed: every such row for the learned planner, only the
  /// rows it is the baseline of for DP/GEQO; zero everywhere when the run
  /// did not measure execution). exec_regret compares the planner's
  /// measured wall-clock against the baseline's — the measured
  /// counterpart of latency_regret, which compares simulated latencies.
  int num_exec = 0;
  SummaryStats exec_regret;
  double mean_exec_ms = 0.0;
};

/// Summarizes `planner`'s regret vs each row's baseline tier over `rows`.
/// Planner::kDp expects rows where DP ran (the dp_* fields are zero
/// elsewhere).
PlannerStats ComputePlannerStats(
    const std::vector<HandsFreeOptimizer::QueryEvaluation>& rows,
    Planner planner);

}  // namespace hfq

#endif  // HFQ_EVAL_REGRET_H_
