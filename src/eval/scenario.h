// Scenario-matrix definitions for the evaluation harness: the cross
// product of join-graph topology x relation count x data-skew profile x
// predicate mix that the harness sweeps, plus per-cell seed derivation so
// every cell's workload is deterministic and independent of how cells are
// scheduled across workers.
#ifndef HFQ_EVAL_SCENARIO_H_
#define HFQ_EVAL_SCENARIO_H_

#include <string>
#include <vector>

#include "core/hands_free.h"
#include "search/plan_search.h"
#include "util/status.h"
#include "workload/generator.h"

namespace hfq {

/// One point on the data axis: a named skew multiplier handed to
/// DataGenerator (0 = uniform data, 1 = the schema's declared skews).
struct DataProfile {
  std::string name;
  double skew_scale = 1.0;
};

/// One point on the predicate axis: named query-shape knobs.
struct PredicateMix {
  std::string name;
  QueryShapeOptions shape;
};

/// Harness configuration. The default constructor builds the full default
/// matrix (6 topology families — chain, star, clique, snowflake, cyclic,
/// disconnected — x {3,5,8} relations x {uniform, skewed} data x {lite,
/// rich} predicate mixes, learned planner swept over greedy / best-of-8 /
/// beam-4 plan search); ReducedEvalConfig() shrinks it for smoke tests.
struct EvalConfig {
  EvalConfig();

  std::vector<JoinTopology> topologies;
  std::vector<int> relation_counts;
  std::vector<DataProfile> data_profiles;
  std::vector<PredicateMix> predicate_mixes;
  /// Baseline tiering: the exhaustive-DP baseline runs only for queries
  /// with at most this many relations. Cells above it are scored against
  /// GEQO instead (QueryEvaluation::baseline_*), mirroring PostgreSQL's
  /// geqo_threshold tiering — beyond exhaustive reach, the genetic planner
  /// IS the traditional optimizer's behavior; such cells carry no "dp"
  /// planner section in the report.
  int dp_max_relations = 12;
  /// The DP-infeasible band: extra large-join cells appended after the
  /// regular matrix, crossed with the same data profiles and predicate
  /// mixes. Both vectors must be empty or non-empty together. The default
  /// band (chain/snowflake/clique x 16 relations on the IMDB-like catalog)
  /// exercises JOB-scale join graphs the old exhaustive enumerator could
  /// not plan; ReducedEvalConfig clears it.
  std::vector<JoinTopology> band_topologies;
  std::vector<int> band_relation_counts;
  /// Queries generated and evaluated per matrix cell.
  int queries_per_cell = 4;
  /// Master seed: drives training workloads, policy init, and every
  /// cell's private query stream. Identical seeds give identical reports.
  uint64_t seed = 7;
  /// Cell-level fan-out (PR 3 convention: cell i runs on worker i % N;
  /// results are bit-for-bit identical for any worker count because each
  /// cell owns its seed and generator).
  int num_workers = 1;
  /// Scale of the synthetic IMDB-like engines (one per data profile).
  double engine_scale = 0.05;
  TrainingStrategy strategy = TrainingStrategy::kCostModelBootstrapping;
  int training_episodes = 80;
  /// Families in the JOB-like training suite (one variant each).
  int training_families = 10;
  /// Plan-search sweep for the learned planner: every query of every cell
  /// is planned once per mode (DP/GEQO baselines are search-independent
  /// and run once). Mode 0 is the report's "learned" planner; additional
  /// modes appear as "learned:<mode>" sections.
  std::vector<SearchConfig> search_modes;
  /// Search-as-teacher refinement iterations run after each profile's
  /// training (HandsFreeOptimizer::RefineWithTeacher): the frozen policy
  /// searches a teacher workload (the training suite plus one query per
  /// topology x relation-count combination) with `teacher_mode`, and the
  /// backend trains on the cheapest discovered plan per query. On by
  /// default — this is what closes the greedy-inference regret gap. 0
  /// disables refinement entirely (the pre-teacher training path).
  int teacher_iterations = 4;
  /// Plan search the teacher uses (constructor default: beam-4).
  SearchConfig teacher_mode;
  /// Measured execution: every evaluated query's learned and baseline
  /// plans are additionally RUN through the vectorized executor
  /// (hfq_eval --measured-exec), and the report carries measured-latency
  /// regret next to the simulated one. Wall-clock measurements are
  /// machine-dependent, so measured reports are not committed as
  /// cross-machine references.
  bool measured_exec = false;
  /// Emit wall-clock timing fields in the JSON report. Turn off for
  /// byte-identical reports across runs.
  bool include_timings = true;
  /// Planning-time measurement repeats per (query, mode). 1 (default) is
  /// a single cold measurement; R > 1 plans each query once
  /// unmeasured (warmup) plus R timed times and reports the median
  /// planning_ms — the plan, and thus every cost/regret field, is
  /// identical either way.
  int plan_repeats = 1;
};

/// A small matrix (every topology once, 2 relation counts, both data
/// profiles, one predicate mix, 2 queries/cell, short training) for smoke
/// tests and the `eval` ctest label.
EvalConfig ReducedEvalConfig();

/// Rejects empty axes, out-of-range counts, duplicate axis names
/// (including duplicate search-mode tags).
Status ValidateEvalConfig(const EvalConfig& config);

/// One cell of the matrix.
struct ScenarioCell {
  int index = 0;  ///< Position in BuildScenarioCells order.
  JoinTopology topology = JoinTopology::kRandom;
  int num_relations = 0;
  int data_profile = 0;   ///< Index into EvalConfig::data_profiles.
  int predicate_mix = 0;  ///< Index into EvalConfig::predicate_mixes.
  /// True for cells from the band axes (appended after the regular
  /// matrix). Whether DP runs is decided per cell by num_relations vs
  /// dp_max_relations, not by this flag.
  bool band = false;
  /// Seed of this cell's private WorkloadGenerator, derived from
  /// (EvalConfig::seed, index) — scheduling-independent.
  uint64_t seed = 0;

  /// Human-readable coordinates, e.g. "chain/r5/skewed/rich".
  std::string Key(const EvalConfig& config) const;
};

/// The full cross product in deterministic (topology-major) order,
/// followed by the band cells (band topologies x band relation counts x
/// the same data/predicate axes). Indices and derived seeds continue
/// across the boundary, so adding a band never reseeds the regular cells.
std::vector<ScenarioCell> BuildScenarioCells(const EvalConfig& config);

}  // namespace hfq

#endif  // HFQ_EVAL_SCENARIO_H_
