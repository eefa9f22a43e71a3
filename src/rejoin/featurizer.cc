#include "rejoin/featurizer.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>

#include "util/check.h"

namespace hfq {
namespace {

// Depth-weighted membership for every relation in `tree`, written straight
// into the slot's row: one traversal instead of one DepthOf walk per
// relation. Produces the exact doubles DepthOf-based code produced
// (1 / (1 + edge distance from the subtree root), distinct slots).
void FillDepthWeights(const JoinTreeNode* tree, int depth, double* row) {
  if (tree->IsLeaf()) {
    row[tree->rel_idx] = 1.0 / (1.0 + static_cast<double>(depth));
    return;
  }
  FillDepthWeights(tree->left.get(), depth + 1, row);
  FillDepthWeights(tree->right.get(), depth + 1, row);
}

}  // namespace

RejoinFeaturizer::RejoinFeaturizer(int max_relations,
                                   CardinalityEstimator* estimator)
    : max_relations_(max_relations), estimator_(estimator) {
  HFQ_CHECK(max_relations >= 2 && max_relations <= kMaxRelations);
  HFQ_CHECK(estimator != nullptr);
}

int RejoinFeaturizer::FeatureDim() const {
  const int n = max_relations_;
  return 2 * n * n + 3 * n;
}

Status RejoinFeaturizer::CheckCapacity(const Query& query) const {
  if (query.num_relations() <= max_relations_) return Status::OK();
  return Status::InvalidArgument(
      "query '" + query.name + "' has " +
      std::to_string(query.num_relations()) +
      " relations but the featurizer was sized for max_relations=" +
      std::to_string(max_relations_) +
      "; raise HandsFreeConfig::max_relations (or size the harness over "
      "the workload's largest query)");
}

std::vector<double> RejoinFeaturizer::Featurize(
    const Query& query, const std::vector<const JoinTreeNode*>& subtrees,
    FeaturizeCache* cache) {
  const int n = max_relations_;
  // Capacity is an entry-point contract (CheckCapacity), so an
  // over-capacity query reaching this deep is a caller bug, not bad input.
  HFQ_CHECK_MSG(query.num_relations() <= n,
                "over-capacity query reached Featurize; entry points must "
                "validate via RejoinFeaturizer::CheckCapacity first");
  std::vector<double> features(static_cast<size_t>(FeatureDim()), 0.0);

  // Block 1: tree structure (slot-major), depth-weighted membership.
  for (size_t slot = 0; slot < subtrees.size(); ++slot) {
    HFQ_CHECK(static_cast<int>(slot) < n);
    FillDepthWeights(subtrees[slot], 0,
                     features.data() + slot * static_cast<size_t>(n));
  }
  size_t offset = static_cast<size_t>(n) * static_cast<size_t>(n);
  // Blocks 2-4 together: n*n adjacency + n selectivities + n base cards.
  const size_t static_len =
      static_cast<size_t>(n) * static_cast<size_t>(n) +
      2 * static_cast<size_t>(n);

  if (cache != nullptr && !cache->static_blocks.empty()) {
    std::copy(cache->static_blocks.begin(), cache->static_blocks.end(),
              features.begin() + static_cast<ptrdiff_t>(offset));
    offset += static_len;
  } else {
    // Block 2: join-graph adjacency (symmetric; both triangles filled).
    for (const auto& join : query.joins) {
      int a = join.left.rel_idx;
      int b = join.right.rel_idx;
      features[offset + static_cast<size_t>(a * n + b)] = 1.0;
      features[offset + static_cast<size_t>(b * n + a)] = 1.0;
    }
    offset += static_cast<size_t>(n) * static_cast<size_t>(n);

    // Block 3: per-relation estimated selection selectivity.
    for (int rel = 0; rel < query.num_relations(); ++rel) {
      double sel = 1.0;
      for (int s : query.SelectionsOn(rel)) {
        sel *= estimator_->SelectionSelectivity(query, s);
      }
      features[offset + static_cast<size_t>(rel)] = sel;
    }
    offset += static_cast<size_t>(n);

    // Block 4: per-relation log10 base cardinality, scaled to ~[0, 1].
    for (int rel = 0; rel < query.num_relations(); ++rel) {
      double rows = std::max(1.0, estimator_->BaseRows(query, rel));
      features[offset + static_cast<size_t>(rel)] = std::log10(rows) / 8.0;
    }
    offset += static_cast<size_t>(n);

    if (cache != nullptr) {
      const auto begin =
          features.begin() + static_cast<ptrdiff_t>(offset - static_len);
      cache->static_blocks.assign(begin,
                                  begin + static_cast<ptrdiff_t>(static_len));
    }
  }

  // Block 5: per-slot estimated subtree output cardinality (log-scaled).
  for (size_t slot = 0; slot < subtrees.size(); ++slot) {
    const RelSet rels = subtrees[slot]->rels;
    double scaled;
    if (cache != nullptr) {
      auto [it, inserted] = cache->subtree_rows.try_emplace(rels, 0.0);
      if (inserted) {
        it->second =
            std::log10(std::max(1.0, estimator_->Rows(query, rels))) / 8.0;
      }
      scaled = it->second;
    } else {
      scaled = std::log10(std::max(1.0, estimator_->Rows(query, rels))) / 8.0;
    }
    features[offset + slot] = scaled;
  }
  return features;
}

}  // namespace hfq
