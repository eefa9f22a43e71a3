// hfq_eval: the scenario-matrix evaluation CLI. Sweeps join-graph
// topologies x relation counts x data-skew profiles x predicate mixes,
// compares the learned optimizer against exhaustive DP and GEQO on every
// cell, prints a regret table, and writes the machine-readable JSON report
// (one schema, see src/eval/report.h) that seeds the BENCH_*.json
// trajectory.
//
// Usage:
//   example_hfq_eval [--out=PATH] [--seed=N] [--workers=N] [--queries=N]
//                    [--episodes=N] [--scale=F]
//                    [--strategy=lfd|bootstrap|incremental]
//                    [--search=MODE[,MODE...]] [--topologies=T[,T...]]
//                    [--teacher=N] [--teacher-mode=MODE] [--plan-repeats=N]
//                    [--dp-max-relations=N] [--band-topologies=T[,T...]]
//                    [--band-relations=N[,N...]] [--no-band]
//                    [--reduced] [--no-timings] [--measured-exec]
//   example_hfq_eval --serve-stress [--serve-threads=N] [--serve-seconds=F]
//                    [--serve-budget-ms=F] [--scale=F] [--seed=N]
//                    [--episodes=N]
//
// --reduced runs the small smoke matrix (the ctest `eval` label / CI
// eval-smoke job use it); --no-timings drops wall-clock fields so the
// report bytes are deterministic per seed. --search sweeps the learned
// planner over plan-search modes ("greedy", "best-of-<K>", "beam-<W>",
// "best-first-<W>"). --topologies restricts the topology axis (names
// per JoinTopologyName). --teacher sets the search-as-teacher refinement
// iterations run after training (default 4; 0 reproduces the pre-teacher
// training path) and --teacher-mode the plan search the teacher uses
// (default beam-4). --plan-repeats measures each query's planning time as
// the median of N timed plans after one unmeasured warmup (default 1, the
// historic single cold measurement); plans and costs are identical at any
// repeat count. --dp-max-relations caps the exhaustive-DP baseline: cells
// above it are scored against GEQO instead (no "dp" section in the
// report).
// --band-topologies/--band-relations configure the DP-infeasible
// large-join band appended after the regular matrix (default
// chain,snowflake,clique x 16); --no-band drops it, restoring the
// pre-band matrix. --measured-exec additionally RUNS
// every learned and baseline plan through the vectorized executor and
// reports measured-latency regret next to the simulated one (plans that
// trip the intermediate-tuple cap are skipped, not failed); measured
// reports carry machine-dependent wall clock and are never committed as
// cross-machine references (CI's eval-smoke job and `scripts/check.sh
// --eval` run a brief measured smoke).
//
// --serve-stress runs the serving stress harness instead of the matrix:
// trains a small optimizer, stands up a PlanServer, and hammers Plan()
// from --serve-threads threads for --serve-seconds while a background
// thread keeps retraining and swapping policy generations. Prints
// sustained plans/sec, p50/p99 service latency, and the cache hit rate
// (CI's serve-smoke step and `scripts/check.sh --serve-smoke` run it
// briefly).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "util/check.h"
#include "core/hands_free.h"
#include "eval/harness.h"
#include "serve/plan_server.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "workload/generator.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

struct ServeStressConfig {
  int threads = 4;
  double seconds = 2.0;
  double budget_ms = 1.0;
  double engine_scale = 0.05;
  uint64_t seed = 19;
  int training_episodes = 16;
};

double Percentile(std::vector<double>* sorted_in_place, double p) {
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  if (sorted_in_place->empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_in_place->size() - 1));
  return (*sorted_in_place)[idx];
}

int RunServeStress(const ServeStressConfig& config) {
  hfq::EngineOptions engine_options;
  engine_options.imdb.scale = config.engine_scale;
  auto engine = hfq::Engine::CreateImdbLike(engine_options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  hfq::HandsFreeConfig opt_config;
  opt_config.strategy = hfq::TrainingStrategy::kIncrementalHybrid;
  opt_config.max_relations = 8;
  opt_config.training_episodes = config.training_episodes;
  opt_config.seed = config.seed;
  opt_config.incremental_pg.hidden_dims = {64};
  hfq::HandsFreeOptimizer optimizer(engine->get(), opt_config);

  hfq::WorkloadGenerator generator(&(*engine)->catalog(), config.seed);
  auto make_workload = [&generator](int count, int relations,
                                    const std::string& tag) {
    std::vector<hfq::Query> workload;
    for (int i = 0; i < count; ++i) {
      auto q = generator.GenerateQuery(
          relations, "stress_" + tag + std::to_string(i));
      HFQ_CHECK(q.ok());
      workload.push_back(std::move(*q));
    }
    return workload;
  };
  std::vector<hfq::Query> training = make_workload(4, 5, "train");
  std::vector<hfq::Query> serving = make_workload(4, 4, "serve4_");
  for (hfq::Query& q : make_workload(4, 6, "serve6_")) {
    serving.push_back(std::move(q));
  }
  std::vector<hfq::Query> refine_on = make_workload(2, 4, "refine");

  std::printf("serve-stress: training (%d episodes, scale %.2f)...\n",
              config.training_episodes, config.engine_scale);
  hfq::Status trained = optimizer.Train(training);
  if (!trained.ok()) {
    std::fprintf(stderr, "train: %s\n", trained.ToString().c_str());
    return 1;
  }

  hfq::PlanServerConfig server_config;
  server_config.num_workers = config.threads;
  hfq::PlanServer server(&optimizer, server_config);
  if (!server.PublishPolicy().ok() ||
      !server.CalibrateEffort(serving).ok()) {
    std::fprintf(stderr, "server bring-up failed\n");
    return 1;
  }
  std::printf("effort model: %s\n", server.effort().DebugString().c_str());

  std::atomic<bool> stop{false};
  std::mutex latency_mu;
  std::vector<double> latencies;
  std::atomic<uint64_t> errors{0};

  auto serve_loop = [&](int thread_id) {
    std::vector<double> local;
    uint64_t i = static_cast<uint64_t>(thread_id);
    while (!stop.load(std::memory_order_relaxed)) {
      const hfq::Query& q = serving[i % serving.size()];
      // Alternate unlimited and budgeted requests so both the rich tiers
      // and the budget-adaptive path stay hot.
      const double budget = (i % 2 == 0) ? 0.0 : config.budget_ms;
      auto response = server.Plan(q, budget);
      if (!response.ok()) {
        errors.fetch_add(1);
      } else {
        local.push_back(response->service_ms);
      }
      ++i;
    }
    std::lock_guard<std::mutex> lock(latency_mu);
    latencies.insert(latencies.end(), local.begin(), local.end());
  };
  auto swap_loop = [&] {
    hfq::TeacherConfig teacher;
    teacher.iterations = 1;
    teacher.learn_passes = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      hfq::Status status =
          server.ApplyUpdate([&](hfq::HandsFreeOptimizer* live) {
            return live->RefineWithTeacher(refine_on, teacher);
          });
      if (!status.ok()) {
        errors.fetch_add(1);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  };

  std::printf("serving: %d threads x %.1fs, budget %.2fms, background "
              "policy swaps every 200ms\n",
              config.threads, config.seconds, config.budget_ms);
  hfq::Stopwatch wall;
  std::vector<std::thread> threads;
  for (int t = 0; t < config.threads; ++t) {
    threads.emplace_back(serve_loop, t);
  }
  std::thread swapper(swap_loop);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(config.seconds * 1000)));
  stop.store(true);
  for (auto& t : threads) t.join();
  swapper.join();
  const double elapsed_s = wall.ElapsedSeconds();

  const hfq::PlanServerStats stats = server.stats();
  const hfq::ShardedCacheStats cache = server.cache_stats();
  const double hit_rate =
      stats.requests > 0
          ? static_cast<double>(stats.cache_hits) /
                static_cast<double>(stats.requests)
          : 0.0;
  std::printf("---\n");
  std::printf("requests      %llu (%.0f plans/sec sustained)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<double>(stats.requests) / elapsed_s);
  std::printf("latency       p50 %.3f ms, p99 %.3f ms\n",
              Percentile(&latencies, 0.50), Percentile(&latencies, 0.99));
  std::printf("cache         %.1f%% hit rate (%llu hits, %llu stale, "
              "%llu evicted)\n",
              100.0 * hit_rate,
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(cache.stale_misses),
              static_cast<unsigned long long>(cache.evictions));
  std::printf("policy        %llu generations published\n",
              static_cast<unsigned long long>(stats.policy_publishes));
  std::printf("fallbacks     %llu budget-expired greedy fallbacks\n",
              static_cast<unsigned long long>(stats.greedy_fallbacks));
  if (errors.load() > 0) {
    std::fprintf(stderr, "FAILED: %llu serving errors\n",
                 static_cast<unsigned long long>(errors.load()));
    return 1;
  }
  if (stats.requests == 0) {
    std::fprintf(stderr, "FAILED: no requests served\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --serve-stress switches to the serving harness entirely; it shares
  // --scale/--seed/--episodes with the matrix and rejects matrix-only
  // flags.
  bool serve_stress = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve-stress") == 0) serve_stress = true;
  }
  if (serve_stress) {
    ServeStressConfig stress;
    std::string value;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--serve-stress") == 0) {
        continue;
      } else if (ParseFlag(arg, "--serve-threads", &value)) {
        stress.threads = std::atoi(value.c_str());
      } else if (ParseFlag(arg, "--serve-seconds", &value)) {
        stress.seconds = std::atof(value.c_str());
      } else if (ParseFlag(arg, "--serve-budget-ms", &value)) {
        stress.budget_ms = std::atof(value.c_str());
      } else if (ParseFlag(arg, "--scale", &value)) {
        stress.engine_scale = std::atof(value.c_str());
      } else if (ParseFlag(arg, "--seed", &value)) {
        stress.seed = std::strtoull(value.c_str(), nullptr, 10);
      } else if (ParseFlag(arg, "--episodes", &value)) {
        stress.training_episodes = std::atoi(value.c_str());
      } else {
        std::fprintf(stderr, "unknown --serve-stress argument: %s\n", arg);
        return 2;
      }
    }
    if (stress.threads < 1 || stress.seconds <= 0.0) {
      std::fprintf(stderr, "--serve-threads/--serve-seconds out of range\n");
      return 2;
    }
    return RunServeStress(stress);
  }

  // --reduced picks the base config and everything else overrides it, so
  // flag order on the command line never matters.
  hfq::EvalConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reduced") == 0) {
      config = hfq::ReducedEvalConfig();
    }
  }
  std::string out_path = "BENCH_eval_scenario_matrix.json";
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--reduced") == 0) {
      // Applied in the pre-pass above.
    } else if (std::strcmp(arg, "--no-timings") == 0) {
      config.include_timings = false;
    } else if (std::strcmp(arg, "--measured-exec") == 0) {
      config.measured_exec = true;
    } else if (ParseFlag(arg, "--out", &value)) {
      out_path = value;
    } else if (ParseFlag(arg, "--seed", &value)) {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "--workers", &value)) {
      config.num_workers = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--queries", &value)) {
      config.queries_per_cell = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--episodes", &value)) {
      config.training_episodes = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--scale", &value)) {
      config.engine_scale = std::atof(value.c_str());
    } else if (ParseFlag(arg, "--search", &value)) {
      config.search_modes.clear();
      for (const std::string& spec : hfq::Split(value, ',')) {
        auto mode = hfq::ParseSearchSpec(spec);
        if (!mode.ok()) {
          std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
          return 2;
        }
        config.search_modes.push_back(*mode);
      }
    } else if (std::strcmp(arg, "--no-band") == 0) {
      config.band_topologies.clear();
      config.band_relation_counts.clear();
    } else if (ParseFlag(arg, "--dp-max-relations", &value)) {
      config.dp_max_relations = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--band-relations", &value)) {
      config.band_relation_counts.clear();
      for (const std::string& n : hfq::Split(value, ',')) {
        config.band_relation_counts.push_back(std::atoi(n.c_str()));
      }
    } else if (ParseFlag(arg, "--band-topologies", &value)) {
      config.band_topologies.clear();
      for (const std::string& name : hfq::Split(value, ',')) {
        auto topology = hfq::ParseJoinTopology(name);
        if (!topology.ok()) {
          std::fprintf(stderr, "%s\n", topology.status().ToString().c_str());
          return 2;
        }
        config.band_topologies.push_back(*topology);
      }
    } else if (ParseFlag(arg, "--teacher", &value)) {
      config.teacher_iterations = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--plan-repeats", &value)) {
      config.plan_repeats = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--teacher-mode", &value)) {
      auto mode = hfq::ParseSearchSpec(value);
      if (!mode.ok()) {
        std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
        return 2;
      }
      config.teacher_mode = *mode;
    } else if (ParseFlag(arg, "--topologies", &value)) {
      config.topologies.clear();
      for (const std::string& name : hfq::Split(value, ',')) {
        auto topology = hfq::ParseJoinTopology(name);
        if (!topology.ok()) {
          std::fprintf(stderr, "%s\n", topology.status().ToString().c_str());
          return 2;
        }
        config.topologies.push_back(*topology);
      }
    } else if (ParseFlag(arg, "--strategy", &value)) {
      if (value == "lfd") {
        config.strategy = hfq::TrainingStrategy::kLearningFromDemonstration;
      } else if (value == "bootstrap") {
        config.strategy = hfq::TrainingStrategy::kCostModelBootstrapping;
      } else if (value == "incremental") {
        config.strategy = hfq::TrainingStrategy::kIncrementalHybrid;
      } else {
        std::fprintf(stderr, "unknown --strategy: %s\n", value.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }

  std::printf("scenario matrix: %zu topologies x %zu sizes x %zu data x %zu "
              "predicate mixes, %d queries/cell, %d worker(s)\n",
              config.topologies.size(), config.relation_counts.size(),
              config.data_profiles.size(), config.predicate_mixes.size(),
              config.queries_per_cell, config.num_workers);
  if (!config.band_topologies.empty()) {
    std::printf("large-join band: %zu topologies x %zu sizes "
                "(DP baseline capped at %d relations; band cells scored "
                "against GEQO)\n",
                config.band_topologies.size(),
                config.band_relation_counts.size(), config.dp_max_relations);
  }

  hfq::ScenarioEvaluator evaluator(config);
  auto report = evaluator.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "evaluation failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf("%-28s %10s %10s %10s %8s\n", "cell", "learn[c]", "learn[l]",
              "geqo[c]", "win[l]");
  for (const hfq::CellResult& cell : report->cells) {
    std::printf("%-28s %10.4f %10.4f %10.4f %8.2f\n",
                cell.cell.Key(report->config).c_str(),
                cell.learned.cost_regret.mean,
                cell.learned.latency_regret.mean, cell.geqo.cost_regret.mean,
                cell.learned.win_rate_latency);
  }
  std::printf("---\naggregate over %d queries (%d with a DP baseline):\n",
              report->agg_learned.num_queries, report->agg_dp.num_queries);
  std::printf("  learned [%s]: cost regret mean %.4f p95 %.4f | latency "
              "regret mean %.4f p95 %.4f | latency win rate vs DP %.2f\n",
              hfq::SearchConfigName(config.search_modes[0]).c_str(),
              report->agg_learned.cost_regret.mean,
              report->agg_learned.cost_regret.p95,
              report->agg_learned.latency_regret.mean,
              report->agg_learned.latency_regret.p95,
              report->agg_learned.win_rate_latency);
  for (size_t m = 0; m < report->agg_more_search.size(); ++m) {
    const hfq::PlannerStats& s = report->agg_more_search[m];
    std::printf("  learned [%s]: cost regret mean %.4f p95 %.4f | latency "
                "regret mean %.4f p95 %.4f | latency win rate vs DP %.2f\n",
                hfq::SearchConfigName(config.search_modes[m + 1]).c_str(),
                s.cost_regret.mean, s.cost_regret.p95,
                s.latency_regret.mean, s.latency_regret.p95,
                s.win_rate_latency);
  }
  std::printf("  geqo:    cost regret mean %.4f p95 %.4f | latency regret "
              "mean %.4f p95 %.4f\n",
              report->agg_geqo.cost_regret.mean,
              report->agg_geqo.cost_regret.p95,
              report->agg_geqo.latency_regret.mean,
              report->agg_geqo.latency_regret.p95);
  if (config.measured_exec) {
    // The measured counterpart, side by side with the simulated regret
    // above: plans actually executed through the vectorized executor.
    // The DP and GEQO sections split the executed rows by baseline tier.
    const hfq::PlannerStats& learned = report->agg_learned;
    const hfq::PlannerStats& dp = report->agg_dp;
    const hfq::PlannerStats& geqo = report->agg_geqo;
    const int baseline_n = dp.num_exec + geqo.num_exec;
    const double baseline_ms =
        baseline_n == 0 ? 0.0
                        : (dp.mean_exec_ms * dp.num_exec +
                           geqo.mean_exec_ms * geqo.num_exec) /
                              baseline_n;
    std::printf("  measured exec (%d/%d queries ran): learned mean %.3f ms, "
                "baseline mean %.3f ms | measured-latency regret mean %.4f "
                "p95 %.4f (simulated: mean %.4f)\n",
                learned.num_exec, learned.num_queries, learned.mean_exec_ms,
                baseline_ms, learned.exec_regret.mean,
                learned.exec_regret.p95, learned.latency_regret.mean);
  }
  if (config.include_timings) {
    std::printf("  train %.0f ms, total %.0f ms\n", report->train_ms,
                report->total_ms);
  }

  auto write = hfq::WriteReportJson(out_path, *report,
                                    config.include_timings);
  if (!write.ok()) {
    std::fprintf(stderr, "report write failed: %s\n",
                 write.ToString().c_str());
    return 1;
  }
  std::printf("report written to %s\n", out_path.c_str());
  return 0;
}
