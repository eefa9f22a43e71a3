// ReJOIN's state featurization (Section 3 of the paper): each state is the
// current set of join subtrees plus query predicate information, encoded as
// a fixed-size vector so one network serves all queries up to
// max_relations:
//   * tree-structure block: for every subtree slot s and relation r,
//     1/(1+depth of r in slot s's subtree), 0 if absent — ReJOIN's
//     depth-weighted membership encoding;
//   * join-graph adjacency block (static per query);
//   * per-relation estimated selection selectivity (the optimizer's own
//     estimates — the agent sees what the expert sees);
//   * per-relation log-scaled estimated base cardinality;
//   * per-slot log-scaled estimated cardinality of the slot's current
//     subtree (what the estimator believes each intermediate produces —
//     the signal behind every "join small inputs first" heuristic).
#ifndef HFQ_REJOIN_FEATURIZER_H_
#define HFQ_REJOIN_FEATURIZER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "plan/join_tree.h"
#include "plan/query.h"
#include "stats/estimator.h"

namespace hfq {

/// Reusable featurization memory carried by one env instance. Blocks 2-4
/// of the encoding (join-graph adjacency, selection selectivities, base
/// cardinalities) depend only on the query, and block 5's per-subtree
/// cardinality only on the subtree's relation set — but the uncached path
/// re-asks the (internally synchronized) estimator for all of them on
/// every state featurization. Search featurizes dozens of states per
/// query, so the cache turns all but the first of those round-trips into
/// local reads. The caller binds the cache to one query with an id it
/// never reuses for another query (the env: the id of its SetQuery call,
/// which clones and pooled copies share); a new id drops the cached
/// blocks. Not thread-safe: one cache per env, like MlpWorkspace.
struct FeaturizeCache {
  /// Points the cache at the query identified by `id`.
  void Bind(uint64_t id) {
    if (id == query_id) return;
    query_id = id;
    static_blocks.clear();
    subtree_rows.clear();
  }

  uint64_t query_id = 0;
  /// Blocks 2-4 exactly as Featurize lays them out, ready to copy (empty
  /// until the first featurization of the bound query).
  std::vector<double> static_blocks;
  /// Block 5 memo: subtree relation set -> log-scaled estimated rows.
  std::unordered_map<RelSet, double> subtree_rows;
};

/// Fixed-size featurization of (query, subtree list) states.
class RejoinFeaturizer {
 public:
  /// `estimator` must outlive the featurizer.
  RejoinFeaturizer(int max_relations, CardinalityEstimator* estimator);

  /// Dimensionality of Featurize output: 2*N^2 + 3*N.
  int FeatureDim() const;

  /// OK when `query` fits this featurizer's fixed-size encoding, otherwise
  /// InvalidArgument naming the query, its relation count, and the
  /// configured capacity. Every entry point that accepts workload queries
  /// must validate through this (or a caller that already did) before any
  /// code path can reach Featurize; Featurize itself treats an
  /// over-capacity query as a programming error.
  Status CheckCapacity(const Query& query) const;

  /// Encodes the current state. `subtrees` are the episode's live subtrees
  /// in slot order; the query must have at most max_relations relations.
  /// `cache`, when provided, must be bound to `query` (FeaturizeCache::Bind)
  /// and is consulted and filled; the returned vector is bit-identical with
  /// or without it.
  std::vector<double> Featurize(
      const Query& query,
      const std::vector<const JoinTreeNode*>& subtrees,
      FeaturizeCache* cache = nullptr);

  int max_relations() const { return max_relations_; }
  CardinalityEstimator* estimator() { return estimator_; }

 private:
  int max_relations_;
  CardinalityEstimator* estimator_;
};

}  // namespace hfq

#endif  // HFQ_REJOIN_FEATURIZER_H_
