// The logical query: relations (with aliases, so self-joins work),
// conjunctive selections, equality joins, optional GROUP BY / aggregates.
#ifndef HFQ_PLAN_QUERY_H_
#define HFQ_PLAN_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "plan/expr.h"
#include "plan/relset.h"
#include "util/status.h"

namespace hfq {

/// One FROM-list entry. `alias` is how predicates refer to it; distinct
/// aliases may name the same table (self-join).
struct RelationRef {
  std::string table;
  std::string alias;
};

/// A conjunctive select-project-join(-aggregate) query.
struct Query {
  std::string name;
  std::vector<RelationRef> relations;
  std::vector<SelectionPredicate> selections;
  std::vector<JoinPredicate> joins;
  std::vector<ColumnRef> group_by;
  std::vector<AggSpec> aggregates;

  int num_relations() const { return static_cast<int>(relations.size()); }

  /// Index of the relation with the given alias, or -1.
  int RelationIndex(const std::string& alias) const;

  /// Indices of selection predicates on relation `rel`.
  std::vector<int> SelectionsOn(int rel) const;

  /// Indices of join predicates with one side in `a` and the other in `b`.
  std::vector<int> JoinPredsBetween(RelSet a, RelSet b) const;

  /// True iff JoinPredsBetween(a, b) is non-empty; allocates nothing and
  /// stops at the first connecting predicate.
  bool HasJoinPredBetween(RelSet a, RelSet b) const;

  /// Relations adjacent to `rel` in the join graph.
  RelSet NeighborsOf(int rel) const;

  /// Relations adjacent to any member of `s` (excluding s itself).
  RelSet NeighborsOfSet(RelSet s) const;

  /// True if the subgraph induced by `s` is connected (singletons count).
  bool IsConnected(RelSet s) const;

  /// True if the whole query's join graph is connected.
  bool IsFullyConnected() const;

  /// Checks the query against a catalog: tables exist, columns exist,
  /// aliases unique, predicate types match, relation count within RelSet
  /// capacity.
  Status Validate(const Catalog& catalog) const;

  /// Reconstructs SQL text (the mini-SQL dialect of src/sql).
  std::string ToSql() const;

  /// Order-sensitive hash of the query's structure — everything except
  /// `name`. Two queries with equal fingerprints are structurally
  /// identical for caching purposes; components that memoize per query
  /// name use this to detect two distinct queries sharing a name.
  uint64_t StructuralFingerprint() const;
};

}  // namespace hfq

#endif  // HFQ_PLAN_QUERY_H_
