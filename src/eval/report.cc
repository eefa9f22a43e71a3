#include "eval/report.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace hfq {
namespace {

// %.17g round-trips every finite double. Non-finite values (a diverged
// policy producing inf/NaN stats — exactly when the report matters most)
// are not legal JSON numbers, so they become quoted tokens instead of
// corrupting the document.
std::string Num(double v) {
  if (!std::isfinite(v)) {
    if (std::isnan(v)) return "\"nan\"";
    return v > 0 ? "\"inf\"" : "\"-inf\"";
  }
  return StrFormat("%.17g", v);
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void AppendSummary(std::ostringstream* out, const char* key,
                   const SummaryStats& s) {
  *out << Quoted(key) << ":{\"mean\":" << Num(s.mean)
       << ",\"median\":" << Num(s.median) << ",\"p95\":" << Num(s.p95)
       << ",\"max\":" << Num(s.max) << "}";
}

void AppendPlanner(std::ostringstream* out, const std::string& key,
                   const PlannerStats& p, bool include_timings,
                   bool include_exec) {
  *out << Quoted(key) << ":{";
  AppendSummary(out, "cost_regret", p.cost_regret);
  *out << ",";
  AppendSummary(out, "latency_regret", p.latency_regret);
  *out << ",\"win_rate_cost\":" << Num(p.win_rate_cost)
       << ",\"win_rate_latency\":" << Num(p.win_rate_latency)
       << ",\"num_queries\":" << p.num_queries;
  if (include_exec) {
    *out << ",";
    AppendSummary(out, "exec_regret", p.exec_regret);
    *out << ",\"num_exec\":" << p.num_exec
         << ",\"mean_exec_ms\":" << Num(p.mean_exec_ms);
  }
  if (include_timings) {
    *out << ",\"mean_planning_ms\":" << Num(p.mean_planning_ms);
  }
  *out << "}";
}

// `,"key":[item(v0),item(v1),...]`
template <typename T, typename ItemFn>
void AppendList(std::ostringstream* out, const char* key,
                const std::vector<T>& values, ItemFn item) {
  *out << "," << Quoted(key) << ":[";
  for (size_t i = 0; i < values.size(); ++i) {
    *out << (i ? "," : "") << item(values[i]);
  }
  *out << "]";
}

std::string TopologyItem(JoinTopology topology) {
  return Quoted(JoinTopologyName(topology));
}

std::string CountItem(int count) { return std::to_string(count); }

std::string ModeKey(const SearchConfig& mode) {
  return "learned:" + SearchConfigName(mode);
}

}  // namespace

std::string ReportToJson(const EvalReport& report, bool include_timings) {
  const EvalConfig& config = report.config;
  const bool exec = config.measured_exec;
  std::ostringstream out;
  out << "{\"schema\":\"" << kEvalReportSchema << "\"";

  out << ",\"config\":{\"seed\":" << config.seed
      << ",\"engine_scale\":" << Num(config.engine_scale)
      << ",\"strategy\":" << Quoted(TrainingStrategyName(config.strategy))
      << ",\"training_episodes\":" << config.training_episodes
      << ",\"training_families\":" << config.training_families
      << ",\"queries_per_cell\":" << config.queries_per_cell
      << ",\"teacher_iterations\":" << config.teacher_iterations
      << ",\"teacher_mode\":" << Quoted(SearchConfigName(config.teacher_mode))
      << ",\"plan_repeats\":" << config.plan_repeats
      << ",\"measured_exec\":" << (exec ? "true" : "false");
  AppendList(&out, "topologies", config.topologies, TopologyItem);
  AppendList(&out, "relation_counts", config.relation_counts, CountItem);
  out << ",\"dp_max_relations\":" << config.dp_max_relations;
  AppendList(&out, "band_topologies", config.band_topologies, TopologyItem);
  AppendList(&out, "band_relation_counts", config.band_relation_counts,
             CountItem);
  AppendList(&out, "data_profiles", config.data_profiles,
             [](const DataProfile& profile) {
               return "{\"name\":" + Quoted(profile.name) +
                      ",\"skew_scale\":" + Num(profile.skew_scale) + "}";
             });
  AppendList(&out, "predicate_mixes", config.predicate_mixes,
             [](const PredicateMix& mix) { return Quoted(mix.name); });
  AppendList(&out, "search_modes", config.search_modes,
             [](const SearchConfig& mode) {
               return Quoted(SearchConfigName(mode));
             });
  out << "}";

  out << ",\"cells\":[";
  for (size_t i = 0; i < report.cells.size(); ++i) {
    const CellResult& cell = report.cells[i];
    out << (i ? "," : "") << "{\"key\":" << Quoted(cell.cell.Key(config))
        << ",\"topology\":" << TopologyItem(cell.cell.topology)
        << ",\"relations\":" << cell.cell.num_relations << ",\"data\":"
        << Quoted(config.data_profiles[static_cast<size_t>(
                                           cell.cell.data_profile)]
                      .name)
        << ",\"predicates\":"
        << Quoted(config.predicate_mixes[static_cast<size_t>(
                                             cell.cell.predicate_mix)]
                      .name)
        << ",\"planners\":{";
    AppendPlanner(&out, "learned", cell.learned, include_timings, exec);
    if (cell.has_dp) {
      out << ",";
      AppendPlanner(&out, "dp", cell.dp, include_timings, exec);
    }
    out << ",";
    AppendPlanner(&out, "geqo", cell.geqo, include_timings, exec);
    for (size_t m = 0; m < cell.more_search.size(); ++m) {
      out << ",";
      AppendPlanner(&out, ModeKey(config.search_modes[m + 1]),
                    cell.more_search[m], include_timings, exec);
    }
    out << "}}";
  }
  out << "]";

  out << ",\"aggregate\":{";
  AppendPlanner(&out, "learned", report.agg_learned, include_timings, exec);
  if (report.agg_dp.num_queries > 0) {
    out << ",";
    AppendPlanner(&out, "dp", report.agg_dp, include_timings, exec);
  }
  out << ",";
  AppendPlanner(&out, "geqo", report.agg_geqo, include_timings, exec);
  for (size_t m = 0; m < report.agg_more_search.size(); ++m) {
    out << ",";
    AppendPlanner(&out, ModeKey(config.search_modes[m + 1]),
                  report.agg_more_search[m], include_timings, exec);
  }
  out << "}";

  if (include_timings) {
    out << ",\"timings\":{\"train_ms\":" << Num(report.train_ms)
        << ",\"total_ms\":" << Num(report.total_ms) << "}";
  }
  out << "}";
  return out.str();
}

Status WriteReportJson(const std::string& path, const EvalReport& report,
                       bool include_timings) {
  std::ofstream out(path);
  if (!out.good()) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << ReportToJson(report, include_timings) << "\n";
  if (!out.good()) {
    return Status::Internal("write failed: " + path);
  }
  return Status::OK();
}

}  // namespace hfq
