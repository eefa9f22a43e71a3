// Genetic join-order search for large queries, mirroring PostgreSQL's GEQO:
// individuals are relation permutations, decoded into plans by greedy
// connected attachment; selection + order crossover + swap mutation evolve
// the pool.
#include <algorithm>
#include <unordered_map>

#include "optimizer/optimizer.h"
#include "util/check.h"

namespace hfq {

// What every decoded permutation of one enumeration reads of its query,
// looked up once: each relation's access path (cloned into every plan) and
// each joined relation set's estimated rows. The memos behind
// BestAccessPath and the estimator hash the whole query on every call, and
// a pool of 128 plus 300 generations decodes hundreds of plans.
struct TraditionalOptimizer::GeqoLookups {
  std::vector<PlanNodePtr> access;
  std::unordered_map<RelSet, double> rows;
};

PlanNodePtr TraditionalOptimizer::PlanFromPermutation(
    const Query& query, const std::vector<int>& perm, GeqoLookups* lookups) {
  // The cheapest operator for `outer` joined to `inner`, exactly as
  // BestJoin picks it, with the output rows from the lookups.
  auto join = [&](PlanNodePtr outer, PlanNodePtr inner) {
    std::vector<int> preds = query.JoinPredsBetween(outer->rels, inner->rels);
    const RelSet rels = outer->rels | inner->rels;
    auto [it, inserted] = lookups->rows.try_emplace(rels, 0.0);
    if (inserted) it->second = cost_model_->cards()->Rows(query, rels);
    const double out_rows = it->second;
    const JoinChoice choice = ChooseJoin(query, preds, out_rows,
                                         JoinInputOf(*outer),
                                         JoinInputOf(*inner));
    return BuildJoin(query, choice, std::move(preds), out_rows,
                     std::move(outer), std::move(inner));
  };

  // Greedy connected attachment (Postgres gimme_tree): keep a forest; each
  // relation joins the first tree it is connected to, else starts a new
  // tree; finally any remaining trees are cross-joined.
  std::vector<PlanNodePtr> forest;
  for (int rel : perm) {
    PlanNodePtr leaf = lookups->access[static_cast<size_t>(rel)]->Clone();
    bool attached = false;
    for (auto& tree : forest) {
      if (query.HasJoinPredBetween(tree->rels, leaf->rels)) {
        tree = join(std::move(tree), std::move(leaf));
        attached = true;
        break;
      }
    }
    if (!attached) forest.push_back(std::move(leaf));
    // Newly attached relations can connect previously disjoint trees.
    for (size_t i = 0; i + 1 < forest.size();) {
      bool merged = false;
      for (size_t j = i + 1; j < forest.size(); ++j) {
        if (query.HasJoinPredBetween(forest[i]->rels, forest[j]->rels)) {
          forest[i] = join(std::move(forest[i]), std::move(forest[j]));
          forest.erase(forest.begin() + static_cast<int64_t>(j));
          merged = true;
          break;
        }
      }
      if (!merged) ++i;
    }
  }
  while (forest.size() > 1) {  // Forced cross products, smallest first.
    std::sort(forest.begin(), forest.end(),
              [](const PlanNodePtr& a, const PlanNodePtr& b) {
                return a->est_rows < b->est_rows;
              });
    PlanNodePtr a = std::move(forest[0]);
    PlanNodePtr b = std::move(forest[1]);
    forest.erase(forest.begin(), forest.begin() + 2);
    forest.insert(forest.begin(), join(std::move(a), std::move(b)));
  }
  return std::move(forest[0]);
}

Result<PlanNodePtr> TraditionalOptimizer::EnumerateGeqo(const Query& query) {
  const int n = query.num_relations();
  Rng rng(options_.geqo_seed ^ (static_cast<uint64_t>(n) << 32));
  GeqoLookups lookups;
  for (int rel = 0; rel < n; ++rel) {
    lookups.access.push_back(BestAccessPath(query, rel));
  }

  struct Individual {
    std::vector<int> perm;
    double fitness = 0.0;  // Plan cost; lower is better.
  };
  auto evaluate = [&](Individual* ind) {
    PlanNodePtr plan = PlanFromPermutation(query, ind->perm, &lookups);
    ind->fitness = plan->est_cost;
  };

  std::vector<int> base(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) base[static_cast<size_t>(i)] = i;

  std::vector<Individual> pool(static_cast<size_t>(options_.geqo_pool_size));
  for (auto& ind : pool) {
    ind.perm = base;
    rng.Shuffle(&ind.perm);
    evaluate(&ind);
  }

  auto tournament = [&]() -> const Individual& {
    const Individual& a =
        pool[static_cast<size_t>(rng.UniformInt(0, options_.geqo_pool_size - 1))];
    const Individual& b =
        pool[static_cast<size_t>(rng.UniformInt(0, options_.geqo_pool_size - 1))];
    return a.fitness <= b.fitness ? a : b;
  };

  for (int gen = 0; gen < options_.geqo_generations; ++gen) {
    // Order crossover (OX) of two tournament winners.
    const Individual& p1 = tournament();
    const Individual& p2 = tournament();
    Individual child;
    child.perm.assign(static_cast<size_t>(n), -1);
    int lo = static_cast<int>(rng.UniformInt(0, n - 1));
    int hi = static_cast<int>(rng.UniformInt(lo, n - 1));
    std::vector<bool> used(static_cast<size_t>(n), false);
    for (int i = lo; i <= hi; ++i) {
      child.perm[static_cast<size_t>(i)] = p1.perm[static_cast<size_t>(i)];
      used[static_cast<size_t>(p1.perm[static_cast<size_t>(i)])] = true;
    }
    int fill = 0;
    for (int i = 0; i < n; ++i) {
      int v = p2.perm[static_cast<size_t>(i)];
      if (used[static_cast<size_t>(v)]) continue;
      while (child.perm[static_cast<size_t>(fill)] != -1) ++fill;
      child.perm[static_cast<size_t>(fill)] = v;
    }
    // Swap mutation with small probability.
    if (rng.Bernoulli(0.3)) {
      int a = static_cast<int>(rng.UniformInt(0, n - 1));
      int b = static_cast<int>(rng.UniformInt(0, n - 1));
      std::swap(child.perm[static_cast<size_t>(a)],
                child.perm[static_cast<size_t>(b)]);
    }
    evaluate(&child);
    // Replace the worst individual (steady-state GA).
    auto worst = std::max_element(
        pool.begin(), pool.end(), [](const Individual& a, const Individual& b) {
          return a.fitness < b.fitness;
        });
    if (child.fitness < worst->fitness) *worst = std::move(child);
  }

  auto best = std::min_element(
      pool.begin(), pool.end(), [](const Individual& a, const Individual& b) {
        return a.fitness < b.fitness;
      });
  return PlanFromPermutation(query, best->perm, &lookups);
}

}  // namespace hfq
