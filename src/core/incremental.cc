#include "core/incremental.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"
#include "util/string_util.h"

namespace hfq {

const char* CurriculumKindName(CurriculumKind kind) {
  switch (kind) {
    case CurriculumKind::kFlat:
      return "flat";
    case CurriculumKind::kPipeline:
      return "pipeline";
    case CurriculumKind::kRelations:
      return "relations";
    case CurriculumKind::kHybrid:
      return "hybrid";
  }
  return "?";
}

std::vector<int> DistributeEpisodes(const std::vector<double>& weights,
                                    int total) {
  HFQ_CHECK(!weights.empty());
  HFQ_CHECK(total >= 0);
  double weight_sum = 0.0;
  for (double w : weights) {
    HFQ_CHECK(w >= 0.0);
    weight_sum += w;
  }
  HFQ_CHECK(weight_sum > 0.0);

  const size_t n = weights.size();
  std::vector<int> out(n, 0);
  std::vector<std::pair<double, size_t>> fractions;  // (frac, index)
  fractions.reserve(n);
  int assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    const double ideal =
        weights[i] / weight_sum * static_cast<double>(total);
    const int base = static_cast<int>(ideal);
    out[i] = base;
    assigned += base;
    fractions.emplace_back(ideal - static_cast<double>(base), i);
  }
  // Largest fractional parts first; ties by lower index (deterministic).
  std::sort(fractions.begin(), fractions.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (size_t k = 0; assigned < total; ++k) {
    out[fractions[k % n].second] += 1;
    ++assigned;
  }
  // Episode floor: when the budget allows, no phase runs empty (shift from
  // the fattest phase, which by construction can spare it).
  if (total >= static_cast<int>(n)) {
    for (size_t i = 0; i < n; ++i) {
      if (out[i] > 0) continue;
      size_t richest = 0;
      for (size_t j = 1; j < n; ++j) {
        if (out[j] > out[richest]) richest = j;
      }
      HFQ_CHECK(out[richest] > 1);
      out[richest] -= 1;
      out[i] += 1;
    }
  }
  HFQ_CHECK(std::accumulate(out.begin(), out.end(), 0) == total);
  return out;
}

std::vector<CurriculumPhase> BuildCurriculum(CurriculumKind kind,
                                             int total_episodes,
                                             int max_relations) {
  HFQ_CHECK(total_episodes > 0);
  HFQ_CHECK(max_relations >= 2);
  std::vector<CurriculumPhase> phases;
  std::vector<double> weights;
  switch (kind) {
    case CurriculumKind::kFlat: {
      phases.push_back(CurriculumPhase{PipelineStages::All(), max_relations,
                                       total_episodes, "flat"});
      return phases;
    }
    case CurriculumKind::kPipeline: {
      // Four phases, stage prefixes growing (Figure 8). Later phases get
      // more episodes (they learn strictly harder tasks).
      weights = {0.15, 0.2, 0.3, 0.35};
      for (int k = 1; k <= 4; ++k) {
        CurriculumPhase phase;
        phase.stages = PipelineStages::Prefix(k);
        phase.max_relations = max_relations;
        phase.label = StrFormat("pipeline-prefix%d", k);
        phases.push_back(phase);
      }
      break;
    }
    case CurriculumKind::kRelations: {
      // Relation count grows 2, 3, ..., max (Figure 9), full pipeline
      // throughout; episode budget proportional to size.
      for (int n = 2; n <= max_relations; ++n) {
        CurriculumPhase phase;
        phase.stages = PipelineStages::All();
        phase.max_relations = n;
        phase.label = StrFormat("relations-%d", n);
        phases.push_back(phase);
        weights.push_back(static_cast<double>(n));
      }
      break;
    }
    case CurriculumKind::kHybrid: {
      // Stages and relation counts grow together (right panel of Fig 7),
      // then relation count continues to max.
      struct Spec {
        int prefix;
        int rels;
        double weight;
      };
      std::vector<Spec> specs = {{1, 2, 0.1}, {2, 3, 0.15}, {3, 4, 0.2},
                                 {4, 6, 0.2}};
      int n = 8;
      double remaining = 0.35;
      std::vector<int> tail_sizes;
      while (n < max_relations) {
        tail_sizes.push_back(n);
        n += 4;
      }
      tail_sizes.push_back(max_relations);
      for (int sz : tail_sizes) {
        specs.push_back(
            {4, sz, remaining / static_cast<double>(tail_sizes.size())});
      }
      for (const Spec& s : specs) {
        CurriculumPhase phase;
        phase.stages = PipelineStages::Prefix(s.prefix);
        phase.max_relations = std::min(s.rels, max_relations);
        phase.label =
            StrFormat("hybrid-p%d-n%d", s.prefix, phase.max_relations);
        phases.push_back(phase);
        weights.push_back(s.weight);
      }
      break;
    }
  }
  // Exact budget: truncation used to make phases sum to fewer (or, via a
  // max(1, .) floor, more) episodes than total_episodes.
  std::vector<int> budgets = DistributeEpisodes(weights, total_episodes);
  for (size_t i = 0; i < phases.size(); ++i) phases[i].episodes = budgets[i];
  return phases;
}

IncrementalTrainer::IncrementalTrainer(FullPipelineEnv* env,
                                       RewardSignal* reward,
                                       WorkloadGenerator* generator,
                                       PolicyGradientConfig pg,
                                       int episodes_per_update, uint64_t seed,
                                       int num_rollout_workers)
    : env_(env),
      generator_(generator),
      trainer_(env, reward, pg, episodes_per_update, num_rollout_workers,
               seed) {
  HFQ_CHECK(env != nullptr && generator != nullptr);
}

Status IncrementalTrainer::Run(
    const std::vector<CurriculumPhase>& phases, int queries_per_phase,
    const std::function<void(const CurriculumEpisodeStats&)>& on_episode) {
  for (size_t pi = 0; pi < phases.size(); ++pi) {
    const CurriculumPhase& phase = phases[pi];
    if (phase.episodes <= 0) continue;
    env_->set_stages(phase.stages);
    // Per-phase workload matching the relation cap. Mix sizes 2..cap so
    // earlier skills are not forgotten (except the 2-relation phase).
    std::vector<Query> workload;
    for (int qi = 0; qi < queries_per_phase; ++qi) {
      int lo = std::max(2, phase.max_relations / 2);
      int n = lo + qi % (phase.max_relations - lo + 1);
      HFQ_ASSIGN_OR_RETURN(
          Query q,
          generator_->GenerateQuery(
              n, StrFormat("cur_%s_p%zu_q%d", phase.label.c_str(), pi, qi)));
      workload.push_back(std::move(q));
    }
    // Train flushes the phase's trailing partial batch, so no update mixes
    // two phases' stage sets.
    trainer_.Train(workload, phase.episodes,
                   [&](const TrainedEpisode& trained) {
                     CurriculumEpisodeStats stats;
                     stats.global_episode = global_episode_++;
                     stats.phase_index = static_cast<int>(pi);
                     stats.query_name = trained.query->name;
                     stats.reward = trained.reward;
                     if (on_episode) on_episode(stats);
                   });
  }
  return Status::OK();
}

}  // namespace hfq
