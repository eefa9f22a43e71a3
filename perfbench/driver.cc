// Single-client benchmark driver for the hands-free query optimizer.
//
// Runs one of three closed-loop workloads, each with one client thread and
// no other thread doing work, over the library's public APIs only:
//
//   adhoc  the life of one query: ParseSql -> PlanServer::Plan (no budget,
//          plan cache off) -> Executor::Execute, over 204 distinct
//          JOB-like SQL strings.
//   serve  repeated plan traffic with writes: Zipf(s=1) requests over 512
//          query shapes through the plan cache, and every K requests an
//          ApplyUpdate that retrains (one RefineWithTeacher iteration) and
//          publishes a new policy generation.
//   eval   the learned planner against the traditional ones:
//          HandsFreeOptimizer::EvaluateOnEnv (beam-4, DP on) over 105
//          topology queries.
//
// A run replays a fixed op stream made of whole passes (adhoc, eval) or
// whole update cycles (serve); the stream length follows from --seconds
// through a fixed nominal rate, never from a timer. Inputs come from --seed
// only. Every op is checked outside its timed span; a failed check lowers
// success_rate and never aborts the run. Each run prints a digest of the
// work it did so two runs of one seed can be shown to do the same work.
//
// With --trace 1 the driver first replays the stream untraced (the baseline
// for the tracing overhead), then sets up again and replays it with spans
// around every call into a layer, plus an off-the-clock replay of each
// learned plan through a timed FrozenPolicy that splits search time into
// network and env time. Spans go to --trace-out for trace_reduce.py.
//
// Usage: hfq_perfbench --workload adhoc|serve|eval [--seed N] [--seconds S]
//                      [--trace 0|1] [--trace-out PATH]
// The last stdout line is "RESULT <json>"; run.py turns it into the
// benchmark's result line.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/hands_free.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "perfbench/trace.h"
#include "search/plan_search.h"
#include "serve/plan_server.h"
#include "sql/parser.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using hfq::AggRow;
using hfq::Engine;
using hfq::ExecResult;
using hfq::Executor;
using hfq::HandsFreeOptimizer;
using hfq::PlanNodePtr;
using hfq::PlanServer;
using hfq::Query;
using hfq::Rng;
using hfq::SearchConfig;
using hfq::Status;
using hfq::Stopwatch;

// ---------------------------------------------------------------------------
// Fixed parameters. Everything a run does follows from these, the workload
// name, --seed and --seconds.

constexpr double kEngineScale = 0.1;
constexpr uint64_t kDataSeed = 42;
/// The deployed optimizer is trained on a fixed suite, independent of
/// --seed: the seed picks the traffic, not the system under test.
constexpr uint64_t kTrainSeed = 2026;
constexpr int kMaxRelations = 10;
constexpr int kTrainEpisodes = 48;
constexpr int kTrainPretrainSteps = 300;
constexpr int kRefineQueries = 4;
/// Setups per run; setup_s is their median.
constexpr int kSetups = 3;
/// The driver's own executor cap (the library default is 5M tuples). An
/// adhoc op whose learned plan exceeds it fails with ResourceExhausted.
constexpr int64_t kExecCapTuples = 100 * 1000;

constexpr int kAdhocPerSize = 34;  // x relation counts 3..8 = 204 queries
constexpr int kAdhocMinRel = 3;
constexpr int kAdhocMaxRel = 8;
/// adhoc draws interactive queries: the traditional plan's operators
/// together emit at most this many rows.
constexpr int64_t kAdhocMaxReferenceRows = 100 * 1000;

constexpr int kServeShapes = 512;
constexpr int kServeMinRel = 3;
constexpr int kServeMaxRel = 6;
constexpr int kServeCacheShards = 16;
constexpr int kServeCachePerShard = 16;  // 256 entries: about half the pool
constexpr int kServeRequestsPerUpdate = 2000;
/// A budget far below any tier's planning time: selects the greedy tier,
/// whose work does not depend on the budget.
constexpr double kServeTinyBudgetMs = 1e-6;

constexpr int kEvalVariants = 3;
constexpr int kEvalMinRel = 4;
constexpr int kEvalMaxRel = 10;

/// Nominal rates that turn --seconds into a whole number of passes or
/// cycles (measured on a 4-core x86 VM; they fix the stream length only).
constexpr double kAdhocOpsPerSecond = 160.0;
constexpr double kServeCyclesPerSecond = 0.7;
constexpr double kEvalOpsPerSecond = 10.0;

// ---------------------------------------------------------------------------
// Small helpers.

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

template <typename T>
T Must(hfq::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(*result);
}

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

/// FNV-1a over everything the run did, in order.
class Digest {
 public:
  void Add(const std::string& text) {
    for (unsigned char c : text) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ull;
    }
    hash_ ^= 0xff;
    hash_ *= 0x100000001b3ull;
  }
  void Add(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Add(std::string(buf));
  }
  void Add(int64_t value) { Add(std::to_string(value)); }
  std::string Hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
    return buf;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Nearest-rank percentile of an unsorted sample (p in (0, 1]).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Resident memory now, after handing freed heap pages back to the OS:
/// what the process holds, without the transient peaks of single queries
/// (see README.md).
double ResidentMb() {
  malloc_trim(0);
  long pages = 0;
  long resident = 0;
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm != nullptr) {
    if (std::fscanf(statm, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(statm);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Derived stream for one purpose, so pool and traffic draws never share
/// state.
uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  return seed * 0x9E3779B97F4A7C15ull + purpose * 0xBF58476D1CE4E5B9ull + 1;
}

// ---------------------------------------------------------------------------
// FrozenPolicy decorator that times every network call (used only by the
// traced replay of learned plans).

class TimedPolicy : public hfq::FrozenPolicy {
 public:
  explicit TimedPolicy(const hfq::FrozenPolicy* inner) : inner_(inner) {}

  int Greedy(const std::vector<double>& state, const std::vector<bool>& mask,
             hfq::MlpWorkspace* ws) const override {
    return Timed([&] { return inner_->Greedy(state, mask, ws); });
  }
  int Sample(const std::vector<double>& state, const std::vector<bool>& mask,
             Rng* rng, hfq::MlpWorkspace* ws) const override {
    return Timed([&] { return inner_->Sample(state, mask, rng, ws); });
  }
  std::vector<double> Probabilities(const std::vector<double>& state,
                                    const std::vector<bool>& mask,
                                    hfq::MlpWorkspace* ws) const override {
    return Timed([&] { return inner_->Probabilities(state, mask, ws); });
  }
  double Value(const std::vector<double>& state,
               const std::vector<bool>& mask,
               hfq::MlpWorkspace* ws) const override {
    return Timed([&] { return inner_->Value(state, mask, ws); });
  }
  std::vector<std::vector<double>> ScoreActionsBatch(
      const std::vector<const std::vector<double>*>& states,
      const std::vector<const std::vector<bool>*>& masks,
      hfq::MlpWorkspace* ws) const override {
    return Timed([&] { return inner_->ScoreActionsBatch(states, masks, ws); });
  }
  std::vector<double> ValueBatch(
      const std::vector<const std::vector<double>*>& states,
      const std::vector<const std::vector<bool>*>& masks,
      hfq::MlpWorkspace* ws) const override {
    return Timed([&] { return inner_->ValueBatch(states, masks, ws); });
  }

  /// Network time since the last call.
  double TakeMillis() {
    const double ms = ms_;
    ms_ = 0.0;
    return ms;
  }

 private:
  template <typename F>
  auto Timed(F&& call) const -> decltype(call()) {
    Stopwatch watch;
    auto result = call();
    ms_ += watch.ElapsedMillis();
    return result;
  }

  const hfq::FrozenPolicy* inner_;
  mutable double ms_ = 0.0;
};

// ---------------------------------------------------------------------------
// Setup: engine, trained optimizer, server, pool, references, warm-up.

struct PoolQuery {
  /// Original SQL text; adhoc parses it on every op and never re-renders a
  /// parsed query (ParseSql(q.ToSql()) is not a fixed point).
  std::string sql;
  Query query;  ///< Parsed once from `sql`.
  double ref_cost = 0.0;
  ExecResult ref_result;  ///< adhoc: the traditional plan's run.
};

struct World {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<HandsFreeOptimizer> optimizer;
  std::vector<Query> training;
  std::unique_ptr<PlanServer> server;
  std::unique_ptr<Executor> executor;
  std::vector<PoolQuery> pool;
  /// serve: what each shape's last cold plan was, for the cache-hit check.
  struct Served {
    uint64_t generation = 0;
    std::string plan;
    double cost = 0.0;
  };
  std::map<size_t, Served> last_cold;
  std::set<std::string> seen_sql;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// Teacher refinement (in setup and in every serve update) runs on a fixed
/// slice of the training suite, so it costs the same whatever the seed.
std::vector<Query> RefineSet(const World& world) {
  return std::vector<Query>(world.training.begin(),
                            world.training.begin() + kRefineQueries);
}

hfq::TeacherConfig OneTeacherIteration() {
  hfq::TeacherConfig teacher;
  teacher.iterations = 1;
  teacher.learn_passes = 1;
  return teacher;
}

SearchConfig Beam4() {
  SearchConfig search;
  search.mode = hfq::SearchMode::kBeam;
  search.beam_width = 4;
  return search;
}

/// Sorts aggregate rows by group key so two plans' results compare
/// independently of output order.
std::vector<AggRow> SortedRows(std::vector<AggRow> rows) {
  std::sort(rows.begin(), rows.end(), [](const AggRow& a, const AggRow& b) {
    return a.group_keys < b.group_keys;
  });
  return rows;
}

/// Same rows as the reference run. Group keys compare exactly; aggregate
/// values to 1e-9 relative, because plans that join in another order sum
/// floating-point values in another order.
bool SameResult(const ExecResult& got, const ExecResult& want) {
  if (got.output_rows != want.output_rows ||
      got.join_rows != want.join_rows ||
      got.agg_rows.size() != want.agg_rows.size()) {
    return false;
  }
  const std::vector<AggRow> a = SortedRows(got.agg_rows);
  for (size_t i = 0; i < a.size(); ++i) {
    const AggRow& x = a[i];
    const AggRow& y = want.agg_rows[i];
    if (x.group_keys != y.group_keys ||
        x.agg_values.size() != y.agg_values.size()) {
      return false;
    }
    for (size_t j = 0; j < x.agg_values.size(); ++j) {
      const double tol = 1e-9 * std::max(1.0, std::fabs(y.agg_values[j]));
      if (std::fabs(x.agg_values[j] - y.agg_values[j]) > tol) return false;
    }
  }
  return true;
}

int64_t SumNodeRows(const ExecResult& result) {
  int64_t rows = 0;
  for (const auto& [node, count] : result.node_output_rows) rows += count;
  return rows;
}

class Driver {
 public:
  explicit Driver(Options options) : options_(std::move(options)) {}

  int Run();

 private:
  struct StreamStats {
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<double> op_ms;
    double wall_ms = 0.0;  ///< Ops plus updates, checks excluded.
    /// Pool index -> learned plan cost / reference cost of the plan it was
    /// last served, so every distinct query weighs the same.
    std::map<size_t, double> cost_ratio;
    /// adhoc: failed ops whose learned plan tripped the executor cap.
    int64_t cap_trips = 0;
    Digest digest;

    /// Counts a failed op; the first few are explained on stderr.
    void Fail(const std::string& why) {
      if (failed++ < 5) std::fprintf(stderr, "perfbench: check: %s\n", why.c_str());
    }
  };

  std::unique_ptr<World> Setup();
  void BuildAdhocPool(World* world);
  void BuildServePool(World* world);
  void BuildEvalPool(World* world);
  PoolQuery DrawDistinct(
      World* world, const char* prefix,
      const std::function<hfq::Result<Query>(const std::string&)>& generate);
  double ReferenceCost(World* world, const Query& query, PlanNodePtr* plan_out);
  void Warmup(World* world);

  StreamStats RunStream(World* world);
  void RunAdhoc(World* world, StreamStats* stats);
  void RunServe(World* world, StreamStats* stats);
  void RunEval(World* world, StreamStats* stats);

  /// Traced run only: replays a learned plan's search through the timed
  /// policy, off the clock, and checks it reproduces the served cost.
  bool ReplaySearch(World* world, const Query& query,
                    const SearchConfig& search, double served_cost,
                    int64_t op);

  std::string Name(const char* prefix) {
    return std::string(prefix) + std::to_string(next_name_++);
  }

  Options options_;
  Tracer tracer_;
  int next_name_ = 0;
  std::unique_ptr<TimedPolicy> timed_policy_;
  std::unique_ptr<hfq::FullPipelineEnv> replay_env_;
  hfq::MlpWorkspace replay_ws_;
  hfq::SearchScratch replay_scratch_;
};

std::unique_ptr<World> Driver::Setup() {
  auto world = std::make_unique<World>();
  next_name_ = 0;
  {
    ScopedSpan span(&tracer_, "storage.build", -1);
    hfq::EngineOptions engine_options;
    engine_options.imdb.scale = kEngineScale;
    engine_options.data_seed = kDataSeed;
    world->engine = Must(Engine::CreateImdbLike(engine_options), "engine");
  }
  Engine& engine = *world->engine;
  {
    ScopedSpan span(&tracer_, "core.train", -1);
    hfq::WorkloadGenerator generator(&engine.catalog(), kTrainSeed,
                                     hfq::QueryShapeOptions(), &engine.db());
    world->training = Must(generator.GenerateJobLikeSuite(
                               /*families=*/8, /*variants=*/2,
                               /*min_relations=*/3, kMaxRelations),
                           "training suite");
    hfq::HandsFreeConfig config;
    config.strategy = hfq::TrainingStrategy::kLearningFromDemonstration;
    config.max_relations = kMaxRelations;
    config.training_episodes = kTrainEpisodes;
    config.lfd.pretrain_steps = kTrainPretrainSteps;
    config.seed = kTrainSeed;
    world->optimizer = std::make_unique<HandsFreeOptimizer>(&engine, config);
    Must(world->optimizer->Train(world->training), "train");
  }
  {
    ScopedSpan span(&tracer_, "rl.teacher", -1);
    Must(world->optimizer->RefineWithTeacher(RefineSet(*world),
                                             OneTeacherIteration()),
         "teacher refinement");
  }
  if (options_.workload != "eval") {
    hfq::PlanServerConfig config;
    config.num_workers = 1;
    config.enable_cache = options_.workload == "serve";
    config.cache_shards = kServeCacheShards;
    config.cache_capacity_per_shard = kServeCachePerShard;
    world->server = std::make_unique<PlanServer>(world->optimizer.get(),
                                                 config);
    ScopedSpan span(&tracer_, "serve.publish", -1);
    Must(world->server->PublishPolicy().status(), "publish");
  }
  if (options_.workload == "adhoc") {
    hfq::ExecOptions exec;
    exec.max_intermediate_tuples = kExecCapTuples;
    exec.num_workers = 1;
    world->executor = std::make_unique<Executor>(&engine.db(), exec);
    BuildAdhocPool(world.get());
  } else if (options_.workload == "serve") {
    BuildServePool(world.get());
  } else {
    BuildEvalPool(world.get());
  }
  Warmup(world.get());
  return world;
}

/// Draws queries from `generate` until one whose SQL text is new to the
/// pool comes up, and parses that text into a pool entry. Every distinct
/// query so keeps one unique name, and no two entries share a structure.
PoolQuery Driver::DrawDistinct(
    World* world, const char* prefix,
    const std::function<hfq::Result<Query>(const std::string&)>& generate) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    hfq::Result<Query> generated = generate(Name(prefix));
    if (!generated.ok()) continue;  // the FK graph cannot host this draw
    PoolQuery entry;
    entry.sql = generated->ToSql();
    if (!world->seen_sql.insert(entry.sql).second) continue;
    ScopedSpan span(&tracer_, "sql.parse", -1);
    entry.query = Must(
        hfq::ParseSql(entry.sql, world->engine->catalog(), generated->name),
        "parse " + generated->name);
    return entry;
  }
  Die(std::string(prefix) + "pool",
      Status::Internal("no new distinct query in 1000 draws"));
}

double Driver::ReferenceCost(World* world, const Query& query,
                             PlanNodePtr* plan_out) {
  ScopedSpan span(&tracer_, "optimizer.reference", -1);
  PlanNodePtr plan =
      Must(world->engine->expert().Optimize(query), "reference plan");
  const double cost = plan->est_cost;
  if (plan_out != nullptr) *plan_out = std::move(plan);
  return cost;
}

void Driver::BuildAdhocPool(World* world) {
  Engine& engine = *world->engine;
  hfq::WorkloadGenerator generator(&engine.catalog(),
                                   SubSeed(options_.seed, 1),
                                   hfq::QueryShapeOptions(), &engine.db());
  for (int n = kAdhocMinRel; n <= kAdhocMaxRel; ++n) {
    for (int kept = 0; kept < kAdhocPerSize;) {
      PoolQuery entry = DrawDistinct(world, "adhoc_", [&](const std::string& name) {
        return generator.GenerateQuery(n, name);
      });
      PlanNodePtr plan;
      entry.ref_cost = ReferenceCost(world, entry.query, &plan);
      hfq::Result<ExecResult> result = Status::Internal("not executed");
      {
        ScopedSpan span(&tracer_, "exec.reference", -1);
        result = world->executor->Execute(entry.query, *plan);
      }
      // A query whose traditional plan does a lot of work is not an
      // interactive one; draw another.
      if (!result.ok() || SumNodeRows(*result) > kAdhocMaxReferenceRows) {
        continue;
      }
      entry.ref_result = std::move(*result);
      entry.ref_result.agg_rows = SortedRows(entry.ref_result.agg_rows);
      entry.ref_result.node_output_rows.clear();
      world->pool.push_back(std::move(entry));
      ++kept;
    }
  }
}

void Driver::BuildServePool(World* world) {
  Engine& engine = *world->engine;
  hfq::WorkloadGenerator generator(&engine.catalog(),
                                   SubSeed(options_.seed, 2),
                                   hfq::QueryShapeOptions(), &engine.db());
  const int sizes = kServeMaxRel - kServeMinRel + 1;
  for (int i = 0; i < kServeShapes; ++i) {
    PoolQuery entry = DrawDistinct(world, "serve_", [&](const std::string& name) {
      return generator.GenerateQuery(kServeMinRel + i % sizes, name);
    });
    entry.ref_cost = ReferenceCost(world, entry.query, nullptr);
    world->pool.push_back(std::move(entry));
  }
}

void Driver::BuildEvalPool(World* world) {
  Engine& engine = *world->engine;
  hfq::WorkloadGenerator generator(&engine.catalog(),
                                   SubSeed(options_.seed, 3),
                                   hfq::QueryShapeOptions(), &engine.db());
  const hfq::JoinTopology topologies[] = {
      hfq::JoinTopology::kChain, hfq::JoinTopology::kStar,
      hfq::JoinTopology::kSnowflake, hfq::JoinTopology::kClique,
      hfq::JoinTopology::kCyclic};
  for (hfq::JoinTopology topology : topologies) {
    for (int n = kEvalMinRel; n <= kEvalMaxRel; ++n) {
      for (int v = 0; v < kEvalVariants; ++v) {
        world->pool.push_back(
            DrawDistinct(world, "eval_", [&](const std::string& name) {
              return generator.GenerateTopologyQuery(topology, n, name);
            }));
      }
    }
  }
}

/// One untimed pass over the pool, so the estimator and access-path memos
/// are warm before the first timed op.
void Driver::Warmup(World* world) {
  ScopedSpan span(&tracer_, "driver.warmup", -1);
  HandsFreeOptimizer& optimizer = *world->optimizer;
  if (options_.workload == "adhoc") {
    for (const PoolQuery& entry : world->pool) {
      Query query = Must(hfq::ParseSql(entry.sql, world->engine->catalog(),
                                       entry.query.name),
                         "parse");
      hfq::PlanResponse response =
          Must(world->server->Plan(query, 0.0), "warm-up plan");
      (void)world->executor->Execute(query, *response.plan);
    }
  } else if (options_.workload == "serve") {
    // The greedy tier fills the memos at half the cost of a beam plan.
    for (size_t i = 0; i < world->pool.size(); ++i) {
      const Query& query = world->pool[i].query;
      hfq::PlanResponse response = Must(
          world->server->Plan(query, kServeTinyBudgetMs), "warm-up plan");
      world->last_cold[i] =
          World::Served{response.policy_generation,
                        response.plan->ToString(query), response.cost};
    }
  } else {
    std::unique_ptr<hfq::FullPipelineEnv> env = optimizer.MakeWorkerEnv();
    hfq::MlpWorkspace ws;
    hfq::SearchScratch scratch;
    for (const PoolQuery& entry : world->pool) {
      Must(optimizer
               .EvaluateLearnedOnEnv(env.get(), entry.query, &ws, Beam4(), 1,
                                     &scratch)
               .status(),
           "warm-up evaluation");
    }
  }
}

bool Driver::ReplaySearch(World* world, const Query& query,
                          const SearchConfig& search, double served_cost,
                          int64_t op) {
  if (timed_policy_ == nullptr) {
    timed_policy_ = std::make_unique<TimedPolicy>(world->optimizer->policy());
    replay_env_ = world->optimizer->MakeWorkerEnv();
  }
  replay_env_->SetQuery(&query);
  const int64_t calls = replay_ws_.forward_calls;
  const int64_t rows = replay_ws_.forward_rows;
  hfq::SearchContext ctx{timed_policy_.get(), nullptr, &replay_ws_,
                         &replay_scratch_};
  std::unique_ptr<hfq::PlanSearch> searcher = hfq::MakePlanSearch(search);
  const int span = tracer_.Begin("replay.search", op);
  hfq::Result<hfq::SearchResult> searched =
      searcher->Search(replay_env_.get(), ctx);
  tracer_.End(span);
  const double nn_ms = timed_policy_->TakeMillis();
  if (!searched.ok()) return false;
  tracer_.Value("nn.forward_ms", op, nn_ms);
  tracer_.Value("nn.forward_calls", op,
                static_cast<double>(replay_ws_.forward_calls - calls));
  tracer_.Value("nn.forward_rows", op,
                static_cast<double>(replay_ws_.forward_rows - rows));
  tracer_.Value("search.rollouts", op, searched->rollouts);
  return searched->cost == served_cost;
}

Driver::StreamStats Driver::RunStream(World* world) {
  StreamStats stats;
  if (options_.workload == "adhoc") {
    RunAdhoc(world, &stats);
  } else if (options_.workload == "serve") {
    RunServe(world, &stats);
  } else {
    RunEval(world, &stats);
  }
  return stats;
}

int Passes(double ops_per_second, double seconds, size_t pool_size) {
  const double passes =
      std::round(ops_per_second * seconds / static_cast<double>(pool_size));
  return std::max(1, static_cast<int>(passes));
}

void Driver::RunAdhoc(World* world, StreamStats* stats) {
  const hfq::Catalog& catalog = world->engine->catalog();
  Rng order_rng(SubSeed(options_.seed, 11));
  const int passes =
      Passes(kAdhocOpsPerSecond, options_.seconds, world->pool.size());
  std::vector<size_t> order(world->pool.size());
  int64_t op = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    order_rng.Shuffle(&order);
    for (size_t index : order) {
      const PoolQuery& entry = world->pool[index];
      ++stats->attempted;
      hfq::Result<Query> query = Status::Internal("not parsed");
      hfq::Result<hfq::PlanResponse> response = Status::Internal("not planned");
      hfq::Result<ExecResult> result = Status::Internal("not executed");
      Stopwatch watch;
      const int op_span = tracer_.Begin("op", op);
      {
        ScopedSpan span(&tracer_, "sql.parse", op);
        query = hfq::ParseSql(entry.sql, catalog, entry.query.name);
      }
      if (query.ok()) {
        ScopedSpan span(&tracer_, "serve.plan.beam-4", op);
        response = world->server->Plan(*query, 0.0);
      }
      if (response.ok()) {
        ScopedSpan span(&tracer_, "exec.execute", op);
        result = world->executor->Execute(*query, *response->plan);
      }
      tracer_.End(op_span);
      const double ms = watch.ElapsedMillis();
      stats->wall_ms += ms;
      stats->op_ms.push_back(ms);
      tracer_.Value("op.wall_ms", op, ms);

      // Checks and bookkeeping, off the clock.
      const std::string& name = entry.query.name;
      stats->digest.Add(name);
      if (!response.ok()) {
        stats->Fail(name + ": " + response.status().ToString());
        ++op;
        continue;
      }
      stats->digest.Add(response->cost);
      stats->cost_ratio[index] = response->cost / entry.ref_cost;
      tracer_.Value("search.planning_ms", op, response->planning_ms);
      bool ok = true;
      if (result.ok()) {
        stats->digest.Add(result->output_rows);
        stats->digest.Add(result->join_rows);
        tracer_.Value("exec.rows", op,
                      static_cast<double>(SumNodeRows(*result)));
        if (!SameResult(*result, entry.ref_result)) {
          stats->Fail(name + ": result differs from the reference run");
          ok = false;
        }
      } else {
        // A learned plan over the cap fails the op (ResourceExhausted).
        if (result.status().code() == hfq::StatusCode::kResourceExhausted) {
          ++stats->cap_trips;
          stats->digest.Add(std::string("cap"));
          tracer_.Value("exec.cap_trip", op, 1.0);
        }
        stats->Fail(name + ": " + result.status().ToString());
        ok = false;
      }
      if (tracer_.enabled() &&
          !ReplaySearch(world, *query, Beam4(), response->cost, op) && ok) {
        stats->Fail(name + ": replayed plan cost differs from the served one");
      }
      ++op;
    }
  }
}

void Driver::RunServe(World* world, StreamStats* stats) {
  PlanServer& server = *world->server;
  const int cycles = std::max(
      1, static_cast<int>(std::round(kServeCyclesPerSecond * options_.seconds)));
  // The traffic: Zipf(s=1) over a seeded permutation of the shapes (so
  // popularity does not follow generation order), and half the requests
  // with a tiny budget (greedy tier), half with none (beam-4 tier). The
  // even split is not taken from measured traffic (see README.md); it gives
  // every run cold plans of both tiers.
  Rng rng(SubSeed(options_.seed, 12));
  std::vector<size_t> rank_to_shape(world->pool.size());
  for (size_t i = 0; i < rank_to_shape.size(); ++i) rank_to_shape[i] = i;
  rng.Shuffle(&rank_to_shape);

  const hfq::EffortModel& effort = server.effort();
  const SearchConfig greedy = effort.tier(0);
  const SearchConfig beam = effort.tier(effort.num_tiers() - 1);
  const std::string beam_name = hfq::SearchConfigName(beam);
  int64_t op = 0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (int r = 0; r < kServeRequestsPerUpdate; ++r) {
      const size_t shape = rank_to_shape[static_cast<size_t>(
          rng.Zipf(static_cast<int64_t>(world->pool.size()), 1.0) - 1)];
      const bool budgeted = rng.Bernoulli(0.5);
      const PoolQuery& entry = world->pool[shape];
      ++stats->attempted;
      Stopwatch watch;
      const int op_span = tracer_.Begin("op", op);
      const int plan_span = tracer_.Begin("serve.plan", op);
      hfq::Result<hfq::PlanResponse> response =
          server.Plan(entry.query, budgeted ? kServeTinyBudgetMs : 0.0);
      tracer_.End(plan_span);
      tracer_.End(op_span);
      const double ms = watch.ElapsedMillis();
      stats->wall_ms += ms;
      stats->op_ms.push_back(ms);
      tracer_.Value("op.wall_ms", op, ms);

      const std::string& name = entry.query.name;
      stats->digest.Add(name);
      if (!response.ok()) {
        stats->Fail(name + ": " + response.status().ToString());
        ++op;
        continue;
      }
      stats->digest.Add(response->cache_hit ? std::string("hit")
                                            : response->search_mode);
      stats->digest.Add(response->cost);
      stats->digest.Add(static_cast<int64_t>(response->policy_generation));
      stats->cost_ratio[shape] = response->cost / entry.ref_cost;
      World::Served served{response->policy_generation,
                           response->plan->ToString(entry.query),
                           response->cost};
      if (response->cache_hit) {
        tracer_.Rename(plan_span, "serve.plan.hit");
        auto it = world->last_cold.find(shape);
        if (it == world->last_cold.end() ||
            it->second.generation != served.generation ||
            it->second.plan != served.plan || it->second.cost != served.cost) {
          stats->Fail(name + ": cache hit differs from its cold plan");
        }
        ++op;
        continue;
      }
      const bool is_beam = response->search_mode == beam_name;
      tracer_.Rename(plan_span,
                     is_beam ? "serve.plan.beam-4" : "serve.plan.greedy");
      tracer_.Value("search.planning_ms", op, response->planning_ms);
      world->last_cold[shape] = std::move(served);
      if (tracer_.enabled() &&
          !ReplaySearch(world, entry.query, is_beam ? beam : greedy,
                        response->cost, op)) {
        stats->Fail(name + ": replayed plan cost differs from the served one");
      }
      ++op;
    }
    // One write: retrain on the fixed refine set and publish the result.
    // Updates are not ops, but their time counts in the stream's wall time.
    const int64_t update_id = -2 - cycle;
    Stopwatch watch;
    const int update_span = tracer_.Begin("update", update_id);
    const int apply_span = tracer_.Begin("serve.update", update_id);
    Status status = server.ApplyUpdate([&](HandsFreeOptimizer* live) {
      ScopedSpan span(&tracer_, "rl.refine", update_id);
      return live->RefineWithTeacher(RefineSet(*world), OneTeacherIteration());
    });
    tracer_.End(apply_span);
    tracer_.End(update_span);
    stats->wall_ms += watch.ElapsedMillis();
    stats->digest.Add(std::string("update"));
    stats->digest.Add(static_cast<int64_t>(server.policy_generation()));
    if (!status.ok()) {
      ++stats->attempted;
      stats->Fail("update: " + status.ToString());
    }
  }
}

void Driver::RunEval(World* world, StreamStats* stats) {
  HandsFreeOptimizer& optimizer = *world->optimizer;
  std::unique_ptr<hfq::FullPipelineEnv> env = optimizer.MakeWorkerEnv();
  hfq::MlpWorkspace ws;
  hfq::SearchScratch scratch;
  Rng order_rng(SubSeed(options_.seed, 13));
  // At least two passes: the tail percentile needs 200 ops.
  const int passes = std::max(
      2, Passes(kEvalOpsPerSecond, options_.seconds, world->pool.size()));
  std::vector<size_t> order(world->pool.size());
  int64_t op = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    order_rng.Shuffle(&order);
    for (size_t index : order) {
      const PoolQuery& entry = world->pool[index];
      ++stats->attempted;
      Stopwatch watch;
      const int op_span = tracer_.Begin("op", op);
      const int eval_span = tracer_.Begin("core.evaluate", op);
      hfq::Result<HandsFreeOptimizer::QueryEvaluation> row =
          optimizer.EvaluateOnEnv(env.get(), entry.query, &ws, Beam4(),
                                  /*plan_repeats=*/1, &scratch,
                                  /*with_dp=*/true, /*measured_exec=*/false);
      tracer_.End(eval_span);
      tracer_.End(op_span);
      const double ms = watch.ElapsedMillis();
      stats->wall_ms += ms;
      stats->op_ms.push_back(ms);
      tracer_.Value("op.wall_ms", op, ms);

      const std::string& name = entry.query.name;
      stats->digest.Add(name);
      if (!row.ok()) {
        stats->Fail(name + ": " + row.status().ToString());
        ++op;
        continue;
      }
      stats->digest.Add(row->learned_cost);
      stats->digest.Add(row->dp_cost);
      stats->digest.Add(row->geqo_cost);
      stats->cost_ratio[index] = row->learned_cost / row->dp_cost;
      tracer_.Value("search.planning_ms", op, row->learned_planning_ms);
      tracer_.Value("optimizer.dp_ms", op, row->dp_planning_ms);
      tracer_.Value("optimizer.geqo_ms", op, row->geqo_planning_ms);
      // DP is the cost floor (the property eval_test asserts).
      const double floor = row->dp_cost * (1.0 - 1e-9);
      bool ok = true;
      if (!(row->dp_cost > 0.0 && row->learned_cost >= floor &&
            row->geqo_cost >= floor)) {
        stats->Fail(name + ": a plan is cheaper than the DP plan");
        ok = false;
      }
      if (tracer_.enabled() &&
          !ReplaySearch(world, entry.query, Beam4(), row->learned_cost, op) &&
          ok) {
        stats->Fail(name + ": replayed plan cost differs from the learned one");
      }
      ++op;
    }
  }
}

hfq::ShardedCacheStats CacheStats(const World& world) {
  return world.server ? world.server->cache_stats() : hfq::ShardedCacheStats();
}

std::string Json(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int Driver::Run() {
  hfq::SetLogLevel(hfq::LogLevel::kWarning);
  // The tail percentile each workload reports (see README.md): adhoc's top
  // 1% is two queries of its pool, so its tail is p90.
  const int tail_pct = options_.workload == "adhoc"   ? 90
                       : options_.workload == "eval" ? 95
                                                     : 99;
  const double tail = tail_pct / 100.0;

  // The untraced stream: set up kSetups times (the median is setup_s),
  // then replay the stream on the last setup. A traced run does the same
  // for its untraced baseline, so both streams run on a reused heap.
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    Stopwatch watch;
    world = Setup();
    setup_s.push_back(watch.ElapsedSeconds());
  }
  StreamStats stats = RunStream(world.get());
  const double rss = ResidentMb();
  world.reset();

  StreamStats traced;
  if (options_.trace) {
    tracer_.Enable();
    world = Setup();
    const hfq::ShardedCacheStats before = CacheStats(*world);
    traced = RunStream(world.get());
    const hfq::ShardedCacheStats after = CacheStats(*world);
    tracer_.Count("serve.stale_misses",
                  static_cast<double>(after.stale_misses - before.stale_misses));
    tracer_.Count("serve.evictions",
                  static_cast<double>(after.evictions - before.evictions));
    tracer_.Count("untraced.wall_ms", stats.wall_ms);
    tracer_.Count("traced.wall_ms", traced.wall_ms);
    if (!tracer_.Write(options_.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options_.trace_out.c_str());
      return 2;
    }
    world.reset();
  }

  const size_t n = stats.op_ms.size();
  const double ops_per_s = static_cast<double>(n) / (stats.wall_ms / 1e3);
  const double p50 = Median(stats.op_ms);
  const double ptail = Percentile(stats.op_ms, tail);
  const double success =
      static_cast<double>(stats.attempted - stats.failed) /
      static_cast<double>(stats.attempted);
  double log_ratio_sum = 0.0;
  for (const auto& [index, ratio] : stats.cost_ratio) {
    log_ratio_sum += std::log(ratio);
  }
  const double cost_ratio =
      std::exp(log_ratio_sum /
               static_cast<double>(std::max<size_t>(1, stats.cost_ratio.size())));
  const int64_t beyond = static_cast<int64_t>(
      std::count_if(stats.op_ms.begin(), stats.op_ms.end(),
                    [&](double v) { return v > ptail; }));

  std::printf("workload %s, seed %" PRIu64 ", %zu ops in %.3f s\n",
              options_.workload.c_str(), options_.seed, n,
              stats.wall_ms / 1e3);
  std::printf("  setup_s          %10.4f s     (median of %zu setups)\n",
              Median(setup_s), setup_s.size());
  std::printf("  ops_per_s        %10.2f 1/s   (n=%zu)\n", ops_per_s, n);
  std::printf("  latency_p50_ms   %10.4f ms    (n=%zu)\n", p50, n);
  std::printf("  latency_p%d_ms   %10.4f ms    (n=%zu, %" PRId64 " above)\n",
              tail_pct, ptail, n, beyond);
  std::printf("  (other percentiles: p90 %.4f ms, p95 %.4f ms, p99 %.4f ms)\n",
              Percentile(stats.op_ms, 0.90), Percentile(stats.op_ms, 0.95),
              Percentile(stats.op_ms, 0.99));
  std::printf("  success_rate     %10.6f       (%" PRId64 " of %" PRId64 ")\n",
              success, stats.attempted - stats.failed, stats.attempted);
  std::printf("  rss_mb           %10.1f MB    (after the stream; peak %.1f MB)\n",
              rss, PeakRssMb());
  std::printf("  plan_cost_ratio  %10.6f       (geomean over %zu queries)\n",
              cost_ratio, stats.cost_ratio.size());
  if (options_.workload == "adhoc") {
    std::printf("  exec cap trips   %10" PRId64
                "       (failed ops: learned plan over the executor cap)\n",
                stats.cap_trips);
  }
  std::printf("digest %s\n", stats.digest.Hex().c_str());
  if (options_.trace) {
    std::printf("traced digest %s\n", traced.digest.Hex().c_str());
  }

  // Failed ops, and among them the ones that are wrong: a wrong answer or
  // an error other than the executor's cap (an op over the cap fails, but
  // the program answered it as designed).
  const int64_t failed = stats.failed + traced.failed;
  const int64_t wrong = failed - stats.cap_trips - traced.cap_trips;
  std::string json =
      "{\"attempted\":" + std::to_string(stats.attempted + traced.attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"wrong\":" + std::to_string(wrong);
  json += ",\"metrics\":{";
  json += "\"setup_s\":" + Json(Median(setup_s));
  json += ",\"ops_per_s\":" + Json(ops_per_s);
  json += ",\"latency_p50_ms\":" + Json(p50);
  json += ",\"latency_tail_ms\":" + Json(ptail);
  json += ",\"success_rate\":" + Json(success);
  json += ",\"rss_mb\":" + Json(rss);
  json += ",\"plan_cost_ratio\":" + Json(cost_ratio);
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options->trace = value == "1";
    } else if (arg == "--trace-out") {
      options->trace_out = value;
    } else {
      return false;
    }
  }
  return (options->workload == "adhoc" || options->workload == "serve" ||
          options->workload == "eval") &&
         options->seconds > 0.0 &&
         (!options->trace || !options->trace_out.empty());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: hfq_perfbench --workload adhoc|serve|eval "
                 "[--seed N] [--seconds S] [--trace 0|1 --trace-out PATH]\n");
    return 2;
  }
  return perfbench::Driver(options).Run();
}
