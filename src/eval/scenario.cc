#include "eval/scenario.h"

#include <set>
#include <utility>

#include "util/rng.h"
#include "util/string_util.h"

namespace hfq {

EvalConfig::EvalConfig() {
  topologies = {JoinTopology::kChain,     JoinTopology::kStar,
                JoinTopology::kClique,    JoinTopology::kSnowflake,
                JoinTopology::kCyclic,    JoinTopology::kDisconnected};
  relation_counts = {3, 5, 8};
  // The DP-infeasible band: JOB-scale join graphs. Sparse shapes (chain,
  // snowflake) the connected-subgraph DP could still plan exactly, plus
  // the dense extreme (clique); all are scored against GEQO.
  band_topologies = {JoinTopology::kChain, JoinTopology::kSnowflake,
                     JoinTopology::kClique};
  band_relation_counts = {16};
  data_profiles = {DataProfile{"uniform", 0.0}, DataProfile{"skewed", 1.5}};

  SearchConfig greedy;  // Mode 0: the paper's single-rollout inference.
  SearchConfig best_of_8;
  best_of_8.mode = SearchMode::kBestOfK;
  best_of_8.best_of_k = 8;
  SearchConfig beam_4;
  beam_4.mode = SearchMode::kBeam;
  beam_4.beam_width = 4;
  search_modes = {greedy, best_of_8, beam_4};
  teacher_mode = beam_4;

  PredicateMix lite;
  lite.name = "lite";
  lite.shape.selection_prob = 0.4;
  lite.shape.max_selections_per_relation = 1;
  lite.shape.aggregate_prob = 0.0;
  lite.shape.range_pred_frac = 0.3;
  PredicateMix rich;
  rich.name = "rich";
  rich.shape.selection_prob = 0.9;
  rich.shape.max_selections_per_relation = 2;
  rich.shape.aggregate_prob = 0.6;
  rich.shape.group_by_prob = 0.5;
  rich.shape.range_pred_frac = 0.5;
  predicate_mixes = {lite, rich};
}

EvalConfig ReducedEvalConfig() {
  EvalConfig config;
  config.relation_counts = {3, 4};
  // No band: every smoke cell stays small enough to score against DP.
  config.band_topologies.clear();
  config.band_relation_counts.clear();
  config.predicate_mixes.resize(1);
  config.queries_per_cell = 2;
  config.engine_scale = 0.03;
  config.training_episodes = 30;
  config.training_families = 6;
  return config;
}

Status ValidateEvalConfig(const EvalConfig& config) {
  if (config.topologies.empty() || config.relation_counts.empty() ||
      config.data_profiles.empty() || config.predicate_mixes.empty()) {
    return Status::InvalidArgument("eval config has an empty matrix axis");
  }
  for (int n : config.relation_counts) {
    if (n < 2 || n > kMaxRelations) {
      return Status::InvalidArgument(
          StrFormat("relation count %d out of [2, %d]", n, kMaxRelations));
    }
  }
  if (config.dp_max_relations < 2) {
    return Status::InvalidArgument("dp_max_relations must be >= 2");
  }
  if (config.band_topologies.empty() != config.band_relation_counts.empty()) {
    return Status::InvalidArgument(
        "band_topologies and band_relation_counts must be both empty or "
        "both non-empty");
  }
  for (int n : config.band_relation_counts) {
    if (n < 2 || n > kMaxRelations) {
      return Status::InvalidArgument(
          StrFormat("band relation count %d out of [2, %d]", n,
                    kMaxRelations));
    }
  }
  // Band cells must not alias regular cells: the (topology, relations)
  // coordinates have to stay unique or cell keys collide.
  {
    std::set<std::pair<int, int>> shapes;
    for (JoinTopology t : config.topologies) {
      for (int n : config.relation_counts) {
        shapes.insert({static_cast<int>(t), n});
      }
    }
    for (JoinTopology t : config.band_topologies) {
      for (int n : config.band_relation_counts) {
        if (!shapes.insert({static_cast<int>(t), n}).second) {
          return Status::InvalidArgument(
              StrFormat("band cell %s/r%d duplicates a matrix cell",
                        JoinTopologyName(t), n));
        }
      }
    }
  }
  std::set<std::string> names;
  for (const auto& profile : config.data_profiles) {
    if (profile.name.empty() || !names.insert("d:" + profile.name).second) {
      return Status::InvalidArgument("missing/duplicate data profile name");
    }
    if (profile.skew_scale < 0.0) {
      return Status::InvalidArgument("data profile skew_scale < 0");
    }
  }
  for (const auto& mix : config.predicate_mixes) {
    if (mix.name.empty() || !names.insert("p:" + mix.name).second) {
      return Status::InvalidArgument("missing/duplicate predicate mix name");
    }
  }
  if (config.queries_per_cell < 1) {
    return Status::InvalidArgument("queries_per_cell must be >= 1");
  }
  if (config.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (config.engine_scale <= 0.0) {
    return Status::InvalidArgument("engine_scale must be positive");
  }
  if (config.training_episodes < 1 || config.training_families < 1) {
    return Status::InvalidArgument("training budget must be >= 1");
  }
  if (config.search_modes.empty()) {
    return Status::InvalidArgument("search_modes must not be empty");
  }
  if (config.teacher_iterations < 0) {
    return Status::InvalidArgument("teacher_iterations must be >= 0");
  }
  if (config.plan_repeats < 1) {
    return Status::InvalidArgument("plan_repeats must be >= 1");
  }
  if (config.teacher_mode.best_of_k < 1 || config.teacher_mode.beam_width < 1) {
    return Status::InvalidArgument("teacher mode knobs must be >= 1");
  }
  for (const SearchConfig& mode : config.search_modes) {
    if (mode.best_of_k < 1 || mode.beam_width < 1) {
      return Status::InvalidArgument("search mode knobs must be >= 1");
    }
    if (!names.insert("s:" + SearchConfigName(mode)).second) {
      return Status::InvalidArgument("duplicate search mode " +
                                     SearchConfigName(mode));
    }
  }
  return Status::OK();
}

std::string ScenarioCell::Key(const EvalConfig& config) const {
  return StrFormat(
      "%s/r%d/%s/%s", JoinTopologyName(topology), num_relations,
      config.data_profiles[static_cast<size_t>(data_profile)].name.c_str(),
      config.predicate_mixes[static_cast<size_t>(predicate_mix)]
          .name.c_str());
}

std::vector<ScenarioCell> BuildScenarioCells(const EvalConfig& config) {
  std::vector<ScenarioCell> cells;
  int index = 0;
  auto append = [&](JoinTopology topology, int n, bool band) {
    for (size_t d = 0; d < config.data_profiles.size(); ++d) {
      for (size_t p = 0; p < config.predicate_mixes.size(); ++p) {
        ScenarioCell cell;
        cell.index = index;
        cell.topology = topology;
        cell.num_relations = n;
        cell.data_profile = static_cast<int>(d);
        cell.predicate_mix = static_cast<int>(p);
        cell.band = band;
        // Per-cell derived seed, decorrelated via the shared splitmix64
        // finalizer so adjacent cells never share an Rng stream prefix.
        cell.seed =
            MixSeed64(config.seed ^ (static_cast<uint64_t>(index) << 20));
        cells.push_back(cell);
        ++index;
      }
    }
  };
  for (JoinTopology topology : config.topologies) {
    for (int n : config.relation_counts) {
      append(topology, n, /*band=*/false);
    }
  }
  for (JoinTopology topology : config.band_topologies) {
    for (int n : config.band_relation_counts) {
      append(topology, n, /*band=*/true);
    }
  }
  return cells;
}

}  // namespace hfq
