// Tests for src/stats: histograms, the estimator's selectivities, and the
// truth oracle's exact counts (validated analytically on MicroDb and
// against brute force).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "stats/estimator.h"
#include "stats/histogram.h"
#include "stats/table_stats.h"
#include "stats/truth_oracle.h"
#include "tests/test_common.h"

namespace hfq {
namespace {

Column MakeIntColumn(const std::vector<int64_t>& values) {
  Column col(ColumnType::kInt64);
  for (int64_t v : values) col.AppendInt(v);
  return col;
}

TEST(HistogramTest, BasicStats) {
  Column col = MakeIntColumn({1, 2, 2, 3, 3, 3, 4, 4, 4, 4});
  ColumnStats stats = BuildColumnStats(col);
  EXPECT_EQ(stats.num_rows, 10);
  EXPECT_EQ(stats.num_distinct, 4);
  EXPECT_EQ(stats.min_value, 1.0);
  EXPECT_EQ(stats.max_value, 4.0);
}

TEST(HistogramTest, EqualitySelectivityNearTruth) {
  std::vector<int64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i % 10);
  ColumnStats stats = BuildColumnStats(MakeIntColumn(values));
  // Each value is exactly 10% of rows.
  for (int v = 0; v < 10; ++v) {
    EXPECT_NEAR(stats.EstimateSelectivity(CmpOp::kEq, v), 0.1, 0.02);
  }
  EXPECT_EQ(stats.EstimateSelectivity(CmpOp::kEq, 99.0), 0.0);
}

TEST(HistogramTest, McvsCaptureHeavyHitters) {
  // Value 0 holds half the mass.
  std::vector<int64_t> values;
  for (int i = 0; i < 500; ++i) values.push_back(0);
  for (int i = 0; i < 500; ++i) values.push_back(1 + i % 100);
  ColumnStats stats = BuildColumnStats(MakeIntColumn(values));
  EXPECT_NEAR(stats.EstimateSelectivity(CmpOp::kEq, 0.0), 0.5, 1e-9);
}

TEST(HistogramTest, RangeSelectivityMonotone) {
  std::vector<int64_t> values;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) values.push_back(rng.UniformInt(0, 999));
  ColumnStats stats = BuildColumnStats(MakeIntColumn(values));
  double prev = -1.0;
  for (double v = 0; v <= 1000; v += 100) {
    double sel = stats.EstimateSelectivity(CmpOp::kLt, v);
    EXPECT_GE(sel, prev);
    EXPECT_GE(sel, 0.0);
    EXPECT_LE(sel, 1.0);
    prev = sel;
  }
  EXPECT_NEAR(stats.EstimateSelectivity(CmpOp::kLt, 500.0), 0.5, 0.05);
  // Complements.
  EXPECT_NEAR(stats.EstimateSelectivity(CmpOp::kLt, 300.0) +
                  stats.EstimateSelectivity(CmpOp::kGe, 300.0),
              1.0, 1e-9);
}

TEST(HistogramTest, NeComplementOfEq) {
  std::vector<int64_t> values;
  for (int i = 0; i < 100; ++i) values.push_back(i % 4);
  ColumnStats stats = BuildColumnStats(MakeIntColumn(values));
  EXPECT_NEAR(stats.EstimateSelectivity(CmpOp::kEq, 2.0) +
                  stats.EstimateSelectivity(CmpOp::kNe, 2.0),
              1.0, 1e-9);
}

TEST(HistogramTest, JoinSelectivitySystemR) {
  ColumnStats a;
  a.num_distinct = 100;
  ColumnStats b;
  b.num_distinct = 40;
  EXPECT_NEAR(a.EstimateJoinSelectivity(b), 0.01, 1e-12);
  EXPECT_NEAR(b.EstimateJoinSelectivity(a), 0.01, 1e-12);
}

TEST(TableStatsTest, AnalyzeCoversAllColumns) {
  testing::MicroDb micro;
  auto stats = StatsCatalog::Analyze(*micro.db);
  ASSERT_TRUE(stats.ok());
  auto parent = stats->GetTable("parent");
  ASSERT_TRUE(parent.ok());
  EXPECT_EQ((*parent)->num_rows, 10);
  EXPECT_NE(stats->FindColumn("child", "pid"), nullptr);
  EXPECT_EQ(stats->FindColumn("child", "zzz"), nullptr);
  EXPECT_FALSE(stats->GetTable("nope").ok());
  EXPECT_EQ(stats->FindColumn("child", "pid")->num_distinct, 10);
}

TEST(EstimatorTest, ScanRowsMatchTruthOnUniformData) {
  testing::MicroDb micro;
  auto stats = StatsCatalog::Analyze(*micro.db);
  ASSERT_TRUE(stats.ok());
  CardinalityEstimator est(&micro.catalog, &*stats);

  Query q = micro.JoinQuery("est_scan");
  // child.v = 1 selects exactly 10 of 40 rows; uniform data: estimator
  // should be nearly exact.
  q.selections.push_back(SelectionPredicate{ColumnRef{1, "v"}, CmpOp::kEq,
                                            Value::Int(1)});
  EXPECT_NEAR(est.ScanRows(q, 1), 10.0, 1.0);
  EXPECT_NEAR(est.BaseRows(q, 1), 40.0, 1e-9);
}

TEST(EstimatorTest, JoinRowsMatchTruthOnUniformFk) {
  testing::MicroDb micro;
  auto stats = StatsCatalog::Analyze(*micro.db);
  ASSERT_TRUE(stats.ok());
  CardinalityEstimator est(&micro.catalog, &*stats);
  Query q = micro.JoinQuery("est_join");
  // |child join parent| = 40 exactly (every child matches one parent).
  EXPECT_NEAR(est.Rows(q, RelSetAll(2)), 40.0, 4.0);
}

TEST(EstimatorTest, RowsWithSelectionsSubset) {
  testing::MicroDb micro;
  auto stats = StatsCatalog::Analyze(*micro.db);
  ASSERT_TRUE(stats.ok());
  CardinalityEstimator est(&micro.catalog, &*stats);
  Query q = micro.JoinQuery("est_subset");
  q.selections.push_back(SelectionPredicate{ColumnRef{1, "v"}, CmpOp::kEq,
                                            Value::Int(1)});
  q.selections.push_back(SelectionPredicate{ColumnRef{1, "pid"}, CmpOp::kLt,
                                            Value::Int(5)});
  double with_one = est.RowsWithSelections(q, 1, {0});
  double with_both = est.RowsWithSelections(q, 1, {0, 1});
  EXPECT_GT(with_one, with_both);
  EXPECT_NEAR(with_one, 10.0, 1.5);
}

TEST(TruthOracleTest, ScanCountsExact) {
  testing::MicroDb micro;
  TrueCardinalityOracle oracle(micro.db.get());
  Query q = micro.JoinQuery("oracle_scan");
  q.selections.push_back(SelectionPredicate{ColumnRef{1, "v"}, CmpOp::kEq,
                                            Value::Int(1)});
  // v = id % 4 == 1 -> exactly 10 of 40.
  EXPECT_EQ(oracle.ScanRows(q, 1), 10.0);
  EXPECT_EQ(oracle.ScanRows(q, 0), 10.0);  // No selections on parent.
  EXPECT_EQ(oracle.BaseRows(q, 1), 40.0);
}

TEST(TruthOracleTest, JoinCountExact) {
  testing::MicroDb micro;
  TrueCardinalityOracle oracle(micro.db.get());
  Query q = micro.JoinQuery("oracle_join");
  // Every child row matches exactly one parent: 40.
  EXPECT_EQ(oracle.Rows(q, RelSetAll(2)), 40.0);
}

TEST(TruthOracleTest, JoinWithSelectionExact) {
  testing::MicroDb micro;
  TrueCardinalityOracle oracle(micro.db.get());
  Query q = micro.JoinQuery("oracle_join_sel");
  // parent.attr = 2 -> parents {2, 7}; each parent has 4 children -> 8.
  q.selections.push_back(SelectionPredicate{ColumnRef{0, "attr"}, CmpOp::kEq,
                                            Value::Int(2)});
  EXPECT_EQ(oracle.Rows(q, RelSetAll(2)), 8.0);
}

TEST(TruthOracleTest, CrossProductIsProduct) {
  testing::MicroDb micro;
  Query q;
  q.name = "oracle_cross";
  q.relations = {RelationRef{"parent", "p1"}, RelationRef{"parent", "p2"}};
  // No join predicates: cross product 10 * 10.
  TrueCardinalityOracle oracle(micro.db.get());
  EXPECT_EQ(oracle.Rows(q, RelSetAll(2)), 100.0);
}

TEST(TruthOracleTest, SelfJoinExact) {
  testing::MicroDb micro;
  Query q;
  q.name = "oracle_self";
  q.relations = {RelationRef{"child", "c1"}, RelationRef{"child", "c2"}};
  q.joins.push_back(JoinPredicate{ColumnRef{0, "pid"}, ColumnRef{1, "pid"}});
  // Each pid value has 4 rows; 10 values: 10 * 4 * 4 = 160.
  TrueCardinalityOracle oracle(micro.db.get());
  EXPECT_EQ(oracle.Rows(q, RelSetAll(2)), 160.0);
}

TEST(TruthOracleTest, ThreeWayJoinExact) {
  testing::MicroDb micro;
  Query q;
  q.name = "oracle_three";
  q.relations = {RelationRef{"child", "c1"}, RelationRef{"parent", "p"},
                 RelationRef{"child", "c2"}};
  q.joins.push_back(JoinPredicate{ColumnRef{0, "pid"}, ColumnRef{1, "id"}});
  q.joins.push_back(JoinPredicate{ColumnRef{2, "pid"}, ColumnRef{1, "id"}});
  // Per parent: 4 * 4 pairs; 10 parents -> 160.
  TrueCardinalityOracle oracle(micro.db.get());
  EXPECT_EQ(oracle.Rows(q, RelSetAll(3)), 160.0);
  // Sub-subset: c1 x p only -> 40.
  EXPECT_EQ(oracle.Rows(q, RelSetOf(0) | RelSetOf(1)), 40.0);
  // Disconnected subset c1, c2 (p missing): cross product 40 * 40.
  EXPECT_EQ(oracle.Rows(q, RelSetOf(0) | RelSetOf(2)), 1600.0);
}

TEST(TruthOracleTest, EmptyResultIsZero) {
  testing::MicroDb micro;
  TrueCardinalityOracle oracle(micro.db.get());
  Query q = micro.JoinQuery("oracle_empty");
  q.selections.push_back(SelectionPredicate{ColumnRef{0, "attr"}, CmpOp::kEq,
                                            Value::Int(77)});
  EXPECT_EQ(oracle.Rows(q, RelSetAll(2)), 0.0);
}

TEST(TruthOracleTest, GroupRowsBounded) {
  testing::MicroDb micro;
  TrueCardinalityOracle oracle(micro.db.get());
  Query q = micro.JoinQuery("oracle_groups");
  q.group_by.push_back(ColumnRef{0, "attr"});
  AggSpec agg;
  agg.func = AggFunc::kCount;
  q.aggregates.push_back(agg);
  double groups = oracle.GroupRows(q);
  EXPECT_GT(groups, 0.0);
  EXPECT_LE(groups, 5.0);  // attr has 5 distinct values.
}

TEST(TruthOracleTest, SameQueryNameSameStructureIsCached) {
  testing::MicroDb micro;
  TrueCardinalityOracle oracle(micro.db.get());
  Query q1 = micro.JoinQuery("oracle_identity");
  double first = oracle.Rows(q1, RelSetAll(2));
  // A structurally identical copy under the same name hits the cache.
  Query q2 = micro.JoinQuery("oracle_identity");
  EXPECT_EQ(q1.StructuralFingerprint(), q2.StructuralFingerprint());
  EXPECT_EQ(oracle.Rows(q2, RelSetAll(2)), first);
}

TEST(TruthOracleTest, ReusedNameGetsItsOwnCounts) {
  // The memos are keyed by (query name, structural fingerprint): a
  // *different* query reusing a name gets exactly the counts it gets under
  // a fresh name, never the first query's cached ones.
  testing::MicroDb micro;
  TrueCardinalityOracle oracle(micro.db.get());
  Query q1 = micro.JoinQuery("oracle_alias");
  const double first = oracle.Rows(q1, RelSetAll(2));
  Query q2 = micro.JoinQuery("oracle_alias");
  q2.selections.push_back(SelectionPredicate{ColumnRef{0, "attr"}, CmpOp::kEq,
                                             Value::Int(2)});
  EXPECT_NE(q1.StructuralFingerprint(), q2.StructuralFingerprint());
  Query fresh = q2;
  fresh.name = "oracle_alias_fresh";
  TrueCardinalityOracle clean(micro.db.get());
  const double expected = clean.Rows(fresh, RelSetAll(2));
  EXPECT_NE(expected, first);
  EXPECT_EQ(oracle.Rows(q2, RelSetAll(2)), expected);
  EXPECT_EQ(oracle.SelectedRows(q2, 0), clean.SelectedRows(fresh, 0));
  EXPECT_EQ(oracle.Rows(q1, RelSetAll(2)), first);
}

TEST(EstimatorTest, SameQueryNameSameStructureIsCached) {
  testing::MicroDb micro;
  auto stats = StatsCatalog::Analyze(*micro.db);
  ASSERT_TRUE(stats.ok());
  CardinalityEstimator est(&micro.catalog, &*stats);
  Query q1 = micro.JoinQuery("est_identity");
  double first = est.Rows(q1, RelSetAll(2));
  // A structurally identical copy under the same name hits the memo.
  Query q2 = micro.JoinQuery("est_identity");
  EXPECT_EQ(est.Rows(q2, RelSetAll(2)), first);
  // ClearCache drops the memo (the workload-switch path); estimates are
  // recomputed, not changed.
  est.ClearCache();
  EXPECT_EQ(est.Rows(q2, RelSetAll(2)), first);
  Query q3 = micro.JoinQuery("est_identity");
  q3.selections.push_back(SelectionPredicate{ColumnRef{1, "v"}, CmpOp::kEq,
                                             Value::Int(1)});
  EXPECT_GT(est.Rows(q3, RelSetAll(2)), 0.0);
}

TEST(EstimatorTest, ReusedNameGetsItsOwnEstimates) {
  // The estimator memoizes Rows per (query name, structural fingerprint,
  // relset), like TrueCardinalityOracle: a *different* query reusing a
  // name gets exactly the estimates a fresh name gets.
  testing::MicroDb micro;
  auto stats = StatsCatalog::Analyze(*micro.db);
  ASSERT_TRUE(stats.ok());
  CardinalityEstimator est(&micro.catalog, &*stats);
  Query q1 = micro.JoinQuery("est_alias");
  const double first = est.Rows(q1, RelSetAll(2));
  Query q2 = micro.JoinQuery("est_alias");
  q2.selections.push_back(SelectionPredicate{ColumnRef{0, "attr"}, CmpOp::kEq,
                                             Value::Int(2)});
  EXPECT_NE(q1.StructuralFingerprint(), q2.StructuralFingerprint());
  Query fresh = q2;
  fresh.name = "est_alias_fresh";
  const double expected = est.Rows(fresh, RelSetAll(2));
  EXPECT_NE(expected, first);
  EXPECT_EQ(est.Rows(q2, RelSetAll(2)), expected);
  EXPECT_EQ(est.Rows(q1, RelSetAll(2)), first);
}

TEST(EstimatorTest, ReusedNameAcrossStackAddressReuse) {
  // Identity must not rest on the object's address: successive loop
  // iterations build same-named variants in the same stack slot, and the
  // second (different) structure must get its own estimate.
  testing::MicroDb micro;
  auto stats = StatsCatalog::Analyze(*micro.db);
  ASSERT_TRUE(stats.ok());
  CardinalityEstimator est(&micro.catalog, &*stats);
  auto probe = [&](bool with_selection, const std::string& name) {
    Query q = micro.JoinQuery(name);
    if (with_selection) {
      q.selections.push_back(SelectionPredicate{ColumnRef{1, "v"}, CmpOp::kEq,
                                                Value::Int(1)});
    }
    return est.Rows(q, RelSetAll(2));
  };
  const double plain = probe(false, "est_alias_reuse");
  const double filtered = probe(true, "est_alias_reuse");
  EXPECT_NE(filtered, plain);
  EXPECT_EQ(filtered, probe(true, "est_alias_reuse_fresh"));
}

TEST(TruthOracleTest, EstimatorErrsOnCorrelatedDataOracleDoesNot) {
  // The paper's core tension: on the IMDB-like data with injected
  // correlations, the estimator's independence assumption must produce
  // real q-errors somewhere, while the oracle is exact by construction.
  Engine& engine = testing::SharedEngine();
  Query q;
  q.name = "corr_probe";
  q.relations = {RelationRef{"movie_info", "mi"}};
  // Correlated pair: info depends on info_type_id. The conjunction of a
  // matching pair is far more frequent than independence predicts.
  auto table = engine.db().GetTable("movie_info");
  ASSERT_TRUE(table.ok());
  int32_t src = (*table)->def().ColumnIndex("info_type_id");
  int32_t dst = (*table)->def().ColumnIndex("info");
  // Find the modal (src, dst) pair.
  std::map<std::pair<int64_t, int64_t>, int64_t> freq;
  for (int64_t r = 0; r < (*table)->num_rows(); ++r) {
    ++freq[{(*table)->column(src).GetInt(r),
            (*table)->column(dst).GetInt(r)}];
  }
  std::pair<int64_t, int64_t> modal;
  int64_t best = 0;
  for (const auto& [k, c] : freq) {
    if (c > best) {
      best = c;
      modal = k;
    }
  }
  q.selections.push_back(SelectionPredicate{
      ColumnRef{0, "info_type_id"}, CmpOp::kEq, Value::Int(modal.first)});
  q.selections.push_back(SelectionPredicate{ColumnRef{0, "info"}, CmpOp::kEq,
                                            Value::Int(modal.second)});
  double truth = engine.oracle().ScanRows(q, 0);
  double est = engine.estimator().ScanRows(q, 0);
  ASSERT_GT(truth, 0.0);
  double q_error = std::max(truth / std::max(est, 1e-9), est / truth);
  EXPECT_GT(q_error, 3.0) << "expected a real estimation error on "
                             "correlated predicates";
}

}  // namespace
}  // namespace hfq
