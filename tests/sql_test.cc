// Tests for src/sql: lexer tokens, parser happy paths, resolution rules,
// and error reporting.
#include <gtest/gtest.h>

#include "sql/lexer.h"
#include "sql/parser.h"
#include "tests/test_common.h"
#include "workload/generator.h"

namespace hfq {
namespace {

class SqlTest : public ::testing::Test {
 protected:
  const Catalog& catalog() { return testing::SharedEngine().catalog(); }
};

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("SELECT a.b, 42 <= 3.5 (*) ; != <>");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenType> kinds;
  for (const auto& t : *tokens) kinds.push_back(t.type);
  EXPECT_EQ(kinds[0], TokenType::kIdentifier);
  EXPECT_EQ(kinds[1], TokenType::kIdentifier);
  EXPECT_EQ(kinds[2], TokenType::kDot);
  EXPECT_EQ(kinds[3], TokenType::kIdentifier);
  EXPECT_EQ(kinds[4], TokenType::kComma);
  EXPECT_EQ(kinds[5], TokenType::kInteger);
  EXPECT_EQ(kinds[6], TokenType::kOperator);
  EXPECT_EQ(kinds[7], TokenType::kDouble);
  EXPECT_EQ(kinds.back(), TokenType::kEnd);
  EXPECT_EQ((*tokens)[5].int_value, 42);
  EXPECT_DOUBLE_EQ((*tokens)[7].double_value, 3.5);
}

TEST(LexerTest, NegativeNumbersAndErrors) {
  auto tokens = Tokenize("x = -7");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[2].int_value, -7);
  EXPECT_FALSE(Tokenize("a $ b").ok());
  EXPECT_FALSE(Tokenize("99999999999999999999999").ok());
}

TEST_F(SqlTest, ParsesSimpleSelect) {
  auto q = ParseSql("SELECT * FROM title WHERE title.production_year > 50",
                    catalog(), "q1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->name, "q1");
  EXPECT_EQ(q->num_relations(), 1);
  ASSERT_EQ(q->selections.size(), 1u);
  EXPECT_EQ(q->selections[0].op, CmpOp::kGt);
  EXPECT_EQ(q->selections[0].value.i, 50);
  EXPECT_TRUE(q->joins.empty());
}

TEST_F(SqlTest, ParsesJoinsAndAliases) {
  auto q = ParseSql(
      "SELECT * FROM title t, cast_info ci "
      "WHERE ci.movie_id = t.id AND ci.nr_order < 3;",
      catalog());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_relations(), 2);
  EXPECT_EQ(q->relations[0].alias, "t");
  ASSERT_EQ(q->joins.size(), 1u);
  EXPECT_EQ(q->joins[0].left.column, "movie_id");
  ASSERT_EQ(q->selections.size(), 1u);
}

TEST_F(SqlTest, ParsesSelfJoinWithAs) {
  auto q = ParseSql(
      "SELECT * FROM title AS t1, title AS t2, movie_link ml "
      "WHERE ml.movie_id = t1.id AND ml.linked_movie_id = t2.id",
      catalog());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_relations(), 3);
  EXPECT_EQ(q->relations[0].table, "title");
  EXPECT_EQ(q->relations[1].table, "title");
  EXPECT_EQ(q->joins.size(), 2u);
  EXPECT_TRUE(q->IsFullyConnected());
}

TEST_F(SqlTest, ParsesAggregatesAndGroupBy) {
  auto q = ParseSql(
      "SELECT t.kind_id, count(*), min(t.production_year) FROM title t "
      "GROUP BY t.kind_id",
      catalog());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->aggregates.size(), 2u);
  EXPECT_EQ(q->aggregates[0].func, AggFunc::kCount);
  EXPECT_FALSE(q->aggregates[0].has_arg);
  EXPECT_EQ(q->aggregates[1].func, AggFunc::kMin);
  EXPECT_TRUE(q->aggregates[1].has_arg);
  // t.kind_id is named by both the select list and GROUP BY: one key.
  ASSERT_EQ(q->group_by.size(), 1u);
  EXPECT_EQ(q->group_by[0].column, "kind_id");
}

TEST_F(SqlTest, ResolvesUnqualifiedUniqueColumn) {
  auto q = ParseSql(
      "SELECT * FROM cast_info WHERE nr_order = 2", catalog());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->selections[0].column.rel_idx, 0);
}

TEST_F(SqlTest, RejectsAmbiguousColumn) {
  auto q = ParseSql(
      "SELECT * FROM title t1, title t2 WHERE production_year = 5",
      catalog());
  EXPECT_FALSE(q.ok());
}

TEST_F(SqlTest, RejectsUnknownTableColumnAlias) {
  EXPECT_FALSE(ParseSql("SELECT * FROM nope", catalog()).ok());
  EXPECT_FALSE(
      ParseSql("SELECT * FROM title WHERE title.zzz = 1", catalog()).ok());
  EXPECT_FALSE(
      ParseSql("SELECT * FROM title WHERE bogus.id = 1", catalog()).ok());
}

TEST_F(SqlTest, RejectsMalformedSyntax) {
  EXPECT_FALSE(ParseSql("FROM title", catalog()).ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM", catalog()).ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM title WHERE", catalog()).ok());
  EXPECT_FALSE(
      ParseSql("SELECT * FROM title WHERE title.id >", catalog()).ok());
  EXPECT_FALSE(
      ParseSql("SELECT * FROM title t trailing garbage here", catalog())
          .ok());
}

TEST_F(SqlTest, RejectsNonEquiJoin) {
  EXPECT_FALSE(ParseSql(
                   "SELECT * FROM title t, cast_info ci "
                   "WHERE ci.movie_id < t.id",
                   catalog())
                   .ok());
}

TEST_F(SqlTest, RejectsIntraRelationJoin) {
  EXPECT_FALSE(ParseSql(
                   "SELECT * FROM title t WHERE t.id = t.kind_id", catalog())
                   .ok());
}

TEST_F(SqlTest, RoundTripThroughToSql) {
  auto q1 = ParseSql(
      "SELECT count(*) FROM title t, cast_info ci "
      "WHERE ci.movie_id = t.id AND t.production_year >= 10",
      catalog(), "rt");
  ASSERT_TRUE(q1.ok());
  auto q2 = ParseSql(q1->ToSql(), catalog(), "rt");
  ASSERT_TRUE(q2.ok()) << q2.status().ToString() << "\nsql: " << q1->ToSql();
  EXPECT_EQ(q2->num_relations(), q1->num_relations());
  EXPECT_EQ(q2->joins.size(), q1->joins.size());
  EXPECT_EQ(q2->selections.size(), q1->selections.size());
  EXPECT_EQ(q2->aggregates.size(), q1->aggregates.size());
}

// ParseSql(q.ToSql()) is a fixed point of rendering for generated
// queries: a GROUP BY key that the select list names too stays one key,
// and every other clause survives the trip unchanged.
TEST_F(SqlTest, GeneratedQueriesRoundTripThroughToSql) {
  Engine& engine = testing::SharedEngine();
  QueryShapeOptions grouped;
  grouped.aggregate_prob = 1.0;
  grouped.group_by_prob = 0.7;
  WorkloadGenerator gen(&engine.catalog(), 515, grouped, &engine.db());
  auto suite = gen.GenerateJobLikeSuite(/*families=*/8, /*variants=*/2,
                                        /*min_relations=*/2,
                                        /*max_relations=*/8);
  ASSERT_TRUE(suite.ok()) << suite.status().ToString();
  std::vector<Query> queries = std::move(*suite);
  for (JoinTopology topology :
       {JoinTopology::kChain, JoinTopology::kStar, JoinTopology::kClique,
        JoinTopology::kSnowflake, JoinTopology::kCyclic,
        JoinTopology::kDisconnected}) {
    for (int n = 3; n <= 6; ++n) {
      auto q = gen.GenerateTopologyQuery(
          topology, n,
          std::string("sql_rt_") + JoinTopologyName(topology) +
              std::to_string(n));
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      queries.push_back(std::move(*q));
    }
  }
  int grouped_queries = 0;
  for (const Query& q : queries) {
    if (!q.group_by.empty() && !q.aggregates.empty()) ++grouped_queries;
    const std::string sql = q.ToSql();
    auto parsed = ParseSql(sql, engine.catalog(), q.name);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\nsql: " << sql;
    EXPECT_EQ(parsed->ToSql(), sql);
    EXPECT_EQ(parsed->group_by.size(), q.group_by.size()) << sql;
  }
  EXPECT_GT(grouped_queries, 5);
}

TEST_F(SqlTest, DoubleValuedPredicates) {
  auto q = ParseSql("SELECT * FROM title WHERE title.production_year < 10.5",
                    catalog());
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->selections[0].value.is_double);
  EXPECT_DOUBLE_EQ(q->selections[0].value.d, 10.5);
}

TEST_F(SqlTest, OperatorSpellingVariants) {
  auto q = ParseSql(
      "SELECT * FROM title WHERE title.kind_id <> 1 AND "
      "title.season_nr != 2 AND title.episode_nr <= 3",
      catalog());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->selections[0].op, CmpOp::kNe);
  EXPECT_EQ(q->selections[1].op, CmpOp::kNe);
  EXPECT_EQ(q->selections[2].op, CmpOp::kLe);
}

}  // namespace
}  // namespace hfq
