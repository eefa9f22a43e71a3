#include "eval/regret.h"

#include <algorithm>
#include <cmath>

namespace hfq {
namespace {

// Relative slack for win/tie detection: DP compared against itself must
// count as a win despite fp round-off in identical arithmetic.
constexpr double kWinEps = 1e-12;

double Regret(double metric, double baseline) {
  if (baseline <= 0.0) return 0.0;
  return metric / baseline - 1.0;
}

}  // namespace

SummaryStats SummaryStats::Of(std::vector<double> values) {
  SummaryStats stats;
  if (values.empty()) return stats;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  double sum = 0.0;
  for (double v : values) sum += v;
  stats.mean = sum / static_cast<double>(n);
  stats.median = n % 2 == 1
                     ? values[n / 2]
                     : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  const size_t rank = static_cast<size_t>(
      std::ceil(0.95 * static_cast<double>(n)));
  stats.p95 = values[std::min(n - 1, rank == 0 ? 0 : rank - 1)];
  stats.max = values[n - 1];
  return stats;
}

const char* PlannerName(Planner planner) {
  switch (planner) {
    case Planner::kLearned:
      return "learned";
    case Planner::kDp:
      return "dp";
    case Planner::kGeqo:
      return "geqo";
  }
  return "?";
}

PlannerStats ComputePlannerStats(
    const std::vector<HandsFreeOptimizer::QueryEvaluation>& rows,
    Planner planner) {
  PlannerStats stats;
  stats.num_queries = static_cast<int>(rows.size());
  std::vector<double> cost_regrets, latency_regrets;
  cost_regrets.reserve(rows.size());
  latency_regrets.reserve(rows.size());
  int cost_wins = 0, latency_wins = 0;
  double planning_sum = 0.0;
  for (const auto& row : rows) {
    double cost = 0.0, latency = 0.0, planning = 0.0;
    switch (planner) {
      case Planner::kLearned:
        cost = row.learned_cost;
        latency = row.learned_latency_ms;
        planning = row.learned_planning_ms;
        break;
      case Planner::kDp:
        cost = row.dp_cost;
        latency = row.dp_latency_ms;
        planning = row.dp_planning_ms;
        break;
      case Planner::kGeqo:
        cost = row.geqo_cost;
        latency = row.geqo_latency_ms;
        planning = row.geqo_planning_ms;
        break;
    }
    cost_regrets.push_back(Regret(cost, row.baseline_cost));
    latency_regrets.push_back(Regret(latency, row.baseline_latency_ms));
    if (cost <= row.baseline_cost * (1.0 + kWinEps)) ++cost_wins;
    if (latency <= row.baseline_latency_ms * (1.0 + kWinEps)) ++latency_wins;
    planning_sum += planning;
  }
  stats.cost_regret = SummaryStats::Of(std::move(cost_regrets));
  stats.latency_regret = SummaryStats::Of(std::move(latency_regrets));
  if (!rows.empty()) {
    const double n = static_cast<double>(rows.size());
    stats.win_rate_cost = static_cast<double>(cost_wins) / n;
    stats.win_rate_latency = static_cast<double>(latency_wins) / n;
    stats.mean_planning_ms = planning_sum / n;
  }

  // Measured-execution summary over the rows where both plans actually
  // ran. Only the learned plan and the baseline plan are executed, so a
  // traditional planner summarizes only rows it is the baseline of; its
  // exec_regret is then identically zero. DP stats only ever see DP-tier
  // rows, so the one planner to filter is GEQO, which is the baseline only
  // where DP did not run.
  std::vector<double> exec_regrets;
  double exec_sum = 0.0;
  for (const auto& row : rows) {
    if (!row.exec_ran) continue;
    if (planner == Planner::kGeqo && row.dp_ran) continue;
    const double ms = planner == Planner::kLearned ? row.learned_exec_ms
                                                   : row.baseline_exec_ms;
    exec_regrets.push_back(Regret(ms, row.baseline_exec_ms));
    exec_sum += ms;
  }
  stats.num_exec = static_cast<int>(exec_regrets.size());
  if (!exec_regrets.empty()) {
    stats.mean_exec_ms = exec_sum / static_cast<double>(exec_regrets.size());
    stats.exec_regret = SummaryStats::Of(std::move(exec_regrets));
  }
  return stats;
}

}  // namespace hfq
