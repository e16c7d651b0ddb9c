// Projection/aggregation tests (the RETURN/WITH rules of Figures 6 and 7
// plus DISTINCT / ORDER BY / SKIP / LIMIT and implicit-grouping
// aggregation as described in §3).

#include <gtest/gtest.h>

#include <limits>

#include "src/core/engine.h"

namespace gqlite {
namespace {

class ProjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.Execute(kSetup).ok());
    ASSERT_TRUE(oracle_.Execute(kSetup).ok());
  }
  Table Run(const std::string& q) {
    auto r = engine_.Execute(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    return r.ok() ? std::move(r->table) : Table();
  }
  /// Runs `q` on the default (Volcano) engine and on the interpreter
  /// over the same data; both must agree byte for byte (or fail with the
  /// same error). Returns the Volcano result.
  Result<Table> RunBoth(const std::string& q, const ValueMap& params = {}) {
    auto got = engine_.Execute(q, params);
    auto want = oracle_.Execute(q, params);
    EXPECT_EQ(got.ok(), want.ok()) << q;
    if (!got.ok() || !want.ok()) {
      if (!got.ok() && !want.ok()) {
        EXPECT_EQ(got.status().ToString(), want.status().ToString()) << q;
      }
      return got.ok() ? want.status() : got.status();
    }
    EXPECT_EQ(got->table.ToString(), want->table.ToString()) << q;
    return std::move(got->table);
  }
  static constexpr const char* kSetup =
      "UNWIND [[1, 'a'], [2, 'b'], [2, 'a'], [3, 'b'], [null, 'a']] AS row "
      "CREATE (:N {v: row[0], g: row[1]})";
  CypherEngine engine_;
  CypherEngine oracle_{[] {
    EngineOptions o;
    o.mode = ExecutionMode::kInterpreter;
    return o;
  }()};
};

TEST_F(ProjectionTest, ImplicitGroupingKeys) {
  Table t = Run("MATCH (n:N) RETURN n.g AS g, count(n.v) AS c ORDER BY g");
  ASSERT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.rows()[0][0].AsString(), "a");
  EXPECT_EQ(t.rows()[0][1].AsInt(), 2);  // count skips the null v
  EXPECT_EQ(t.rows()[1][0].AsString(), "b");
  EXPECT_EQ(t.rows()[1][1].AsInt(), 2);
}

TEST_F(ProjectionTest, CountStarCountsRows) {
  Table t = Run("MATCH (n:N) RETURN n.g AS g, count(*) AS c ORDER BY g");
  EXPECT_EQ(t.rows()[0][1].AsInt(), 3);  // null v still a row
}

TEST_F(ProjectionTest, GlobalAggregationOnEmptyInput) {
  Table t = Run("MATCH (n:Missing) RETURN count(*) AS c, sum(n.v) AS s, "
                "min(n.v) AS mn, collect(n.v) AS vs, avg(n.v) AS a");
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.rows()[0][0].AsInt(), 0);
  EXPECT_EQ(t.rows()[0][1].AsInt(), 0);     // sum of nothing = 0
  EXPECT_TRUE(t.rows()[0][2].is_null());    // min of nothing = null
  EXPECT_TRUE(t.rows()[0][3].AsList().empty());
  EXPECT_TRUE(t.rows()[0][4].is_null());
}

TEST_F(ProjectionTest, GroupedAggregationOnEmptyInputGivesNoRows) {
  Table t = Run("MATCH (n:Missing) RETURN n.g AS g, count(*) AS c");
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST_F(ProjectionTest, NullsGroupTogether) {
  Table t = Run("MATCH (n:N) RETURN n.v AS v, count(*) AS c ORDER BY v");
  // Groups: 1, 2, 3, null → 4 groups; null sorts last.
  ASSERT_EQ(t.NumRows(), 4u);
  EXPECT_TRUE(t.rows()[3][0].is_null());
  EXPECT_EQ(t.rows()[3][1].AsInt(), 1);
}

TEST_F(ProjectionTest, AggregatesSkipNulls) {
  Table t = Run("MATCH (n:N) RETURN sum(n.v) AS s, avg(n.v) AS a, "
                "min(n.v) AS mn, max(n.v) AS mx, collect(n.v) AS vs");
  EXPECT_EQ(t.rows()[0][0].AsInt(), 8);           // 1+2+2+3
  EXPECT_DOUBLE_EQ(t.rows()[0][1].AsFloat(), 2.0);
  EXPECT_EQ(t.rows()[0][2].AsInt(), 1);
  EXPECT_EQ(t.rows()[0][3].AsInt(), 3);
  EXPECT_EQ(t.rows()[0][4].AsList().size(), 4u);  // nulls not collected
}

TEST_F(ProjectionTest, DistinctAggregates) {
  Table t = Run("MATCH (n:N) RETURN count(DISTINCT n.v) AS dv, "
                "collect(DISTINCT n.g) AS gs, sum(DISTINCT n.v) AS sv");
  EXPECT_EQ(t.rows()[0][0].AsInt(), 3);  // 1, 2, 3
  EXPECT_EQ(t.rows()[0][1].AsList().size(), 2u);
  EXPECT_EQ(t.rows()[0][2].AsInt(), 6);
}

TEST_F(ProjectionTest, AggregateInsideExpression) {
  Table t = Run("MATCH (n:N) RETURN count(*) * 10 + 1 AS c");
  EXPECT_EQ(t.rows()[0][0].AsInt(), 51);
  Table t2 = Run("MATCH (n:N) RETURN n.g AS g, "
                 "count(*) + count(DISTINCT n.v) AS mixed ORDER BY g");
  EXPECT_EQ(t2.rows()[0][1].AsInt(), 3 + 2);  // group a: rows 3, distinct 1,2
}

TEST_F(ProjectionTest, SumIntStaysIntSumFloatIsFloat) {
  Table t = Run("UNWIND [1, 2] AS x RETURN sum(x) AS s");
  EXPECT_TRUE(t.rows()[0][0].is_int());
  Table t2 = Run("UNWIND [1, 2.5] AS x RETURN sum(x) AS s");
  EXPECT_TRUE(t2.rows()[0][0].is_float());
  EXPECT_DOUBLE_EQ(t2.rows()[0][0].AsFloat(), 3.5);
}

TEST_F(ProjectionTest, MinMaxUseOrderability) {
  Table t = Run("UNWIND [3, 'b', 1, 'a'] AS x RETURN min(x) AS mn, "
                "max(x) AS mx");
  // Orderability: strings sort before numbers.
  EXPECT_EQ(t.rows()[0][0].AsString(), "a");
  EXPECT_EQ(t.rows()[0][1].AsInt(), 3);
}

TEST_F(ProjectionTest, DistinctRows) {
  Table t = Run("MATCH (n:N) RETURN DISTINCT n.g AS g ORDER BY g");
  ASSERT_EQ(t.NumRows(), 2u);
  Table t2 = Run("MATCH (n:N) WITH DISTINCT n.v AS v RETURN count(*) AS c");
  EXPECT_EQ(t2.rows()[0][0].AsInt(), 4);  // 1, 2, 3, null
}

TEST_F(ProjectionTest, OrderBySkipLimit) {
  Table t = Run("MATCH (n:N) WHERE n.v IS NOT NULL "
                "RETURN n.v AS v ORDER BY v DESC SKIP 1 LIMIT 2");
  ASSERT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.rows()[0][0].AsInt(), 2);
  EXPECT_EQ(t.rows()[1][0].AsInt(), 2);
}

TEST_F(ProjectionTest, OrderByMultipleKeysMixedDirections) {
  Table t = Run("MATCH (n:N) WHERE n.v IS NOT NULL "
                "RETURN n.g AS g, n.v AS v ORDER BY g ASC, v DESC");
  ASSERT_EQ(t.NumRows(), 4u);
  EXPECT_EQ(t.rows()[0][0].AsString(), "a");
  EXPECT_EQ(t.rows()[0][1].AsInt(), 2);
  EXPECT_EQ(t.rows()[1][1].AsInt(), 1);
  EXPECT_EQ(t.rows()[2][0].AsString(), "b");
  EXPECT_EQ(t.rows()[2][1].AsInt(), 3);
}

TEST_F(ProjectionTest, OrderByPreProjectionVariable) {
  // Non-aggregating projection: ORDER BY may use the pre-projection vars.
  Table t = Run("MATCH (n:N) WHERE n.v IS NOT NULL "
                "RETURN n.g AS g ORDER BY n.v DESC LIMIT 1");
  EXPECT_EQ(t.rows()[0][0].AsString(), "b");  // v=3 is 'b'
}

TEST_F(ProjectionTest, OrderByProjectedExpressionText) {
  // Aggregating projection: ORDER BY resolves the projected column by its
  // derived name.
  Table t = Run("MATCH (n:N) RETURN n.g, count(*) AS c ORDER BY n.g DESC");
  EXPECT_EQ(t.rows()[0][0].AsString(), "b");
}

TEST_F(ProjectionTest, SkipLimitValidation) {
  auto bad = engine_.Execute("MATCH (n:N) RETURN n.v LIMIT -1");
  EXPECT_FALSE(bad.ok());
  auto bad2 = engine_.Execute("MATCH (n:N) RETURN n.v SKIP 'x'");
  EXPECT_FALSE(bad2.ok());
  Table t = Run("MATCH (n:N) RETURN n.v SKIP 99");
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST_F(ProjectionTest, WithWhereFiltersAfterProjection) {
  Table t = Run("MATCH (n:N) WITH n.v AS v WHERE v > 1 RETURN count(*) AS c");
  EXPECT_EQ(t.rows()[0][0].AsInt(), 3);  // 2, 2, 3 (null fails v > 1)
}

TEST_F(ProjectionTest, StarKeepsAllColumns) {
  Table t = Run("MATCH (n:N) WITH * RETURN count(n) AS c");
  EXPECT_EQ(t.rows()[0][0].AsInt(), 5);
  Table t2 = Run("UNWIND [1] AS a UNWIND [2] AS b RETURN *");
  EXPECT_EQ(t2.fields(), (std::vector<std::string>{"a", "b"}));
}

TEST_F(ProjectionTest, StarPlusAggregateGroupsByAllColumns) {
  Table t = Run("MATCH (n:N) WITH n.g AS g WITH *, count(*) AS c "
                "RETURN g, c ORDER BY g");
  ASSERT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.rows()[0][1].AsInt(), 3);
}

TEST_F(ProjectionTest, CollectPreservesInputOrderWithinGroup) {
  Table t = Run("UNWIND [3, 1, 2] AS x RETURN collect(x) AS xs");
  const ValueList& xs = t.rows()[0][0].AsList();
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_EQ(xs[0].AsInt(), 3);
  EXPECT_EQ(xs[1].AsInt(), 1);
  EXPECT_EQ(xs[2].AsInt(), 2);
}

TEST_F(ProjectionTest, UnwindNonListYieldsSingleRow) {
  // The paper's Figure 7 rule (including the null case; DESIGN.md).
  Table t = Run("UNWIND 42 AS x RETURN x");
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.rows()[0][0].AsInt(), 42);
  Table t2 = Run("UNWIND null AS x RETURN x");
  ASSERT_EQ(t2.NumRows(), 1u);
  EXPECT_TRUE(t2.rows()[0][0].is_null());
  Table t3 = Run("UNWIND [] AS x RETURN x");
  EXPECT_EQ(t3.NumRows(), 0u);
}

TEST_F(ProjectionTest, NestedUnwindMultiplies) {
  Table t = Run("UNWIND [1, 2] AS x UNWIND [10, 20] AS y "
                "RETURN x * y AS p ORDER BY p");
  ASSERT_EQ(t.NumRows(), 4u);
  EXPECT_EQ(t.rows()[0][0].AsInt(), 10);
  EXPECT_EQ(t.rows()[3][0].AsInt(), 40);
}

TEST_F(ProjectionTest, OrderByAliasShadowsPreProjectionVariable) {
  // The alias `n` (a string) shadows the matched node `n`: ORDER BY n
  // sorts by the projected column, not by the node (creation order
  // a, b, a, b, a).
  auto t = RunBoth("MATCH (n:N) RETURN n.g AS n ORDER BY n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  std::string order;
  for (const auto& r : t->rows()) order += r[0].AsString();
  EXPECT_EQ(order, "aaabb");
  // Swapped aliases: each ORDER BY key names the OUTPUT column, and a
  // pre-projection-only variable still reads the input row.
  auto s2 = RunBoth(
      "MATCH (n:N) WITH n.v AS v, n.g AS g, n AS m "
      "RETURN g AS v, v AS g ORDER BY v DESC, g, m.v");
  ASSERT_TRUE(s2.ok()) << s2.status().ToString();
  ASSERT_EQ(s2->NumRows(), 5u);
  EXPECT_EQ(s2->rows()[0][0].AsString(), "b");
  EXPECT_EQ(s2->rows()[0][1].AsInt(), 2);
  EXPECT_EQ(s2->rows()[1][1].AsInt(), 3);
  EXPECT_EQ(s2->rows()[2][0].AsString(), "a");
  EXPECT_EQ(s2->rows()[2][1].AsInt(), 1);
  EXPECT_TRUE(s2->rows()[4][1].is_null());
}

TEST_F(ProjectionTest, AggregatesNestedInExpressions) {
  auto t = RunBoth(
      "MATCH (n:N) RETURN count(*) + 1 AS c, collect(n.v)[0] AS first, "
      "size(collect(n.g)) AS sz, -min(n.v) AS neg");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->NumRows(), 1u);
  EXPECT_EQ(t->rows()[0][0].AsInt(), 6);
  EXPECT_EQ(t->rows()[0][1].AsInt(), 1);
  EXPECT_EQ(t->rows()[0][2].AsInt(), 5);
  EXPECT_EQ(t->rows()[0][3].AsInt(), -1);
  auto g = RunBoth(
      "MATCH (n:N) RETURN n.g AS g, collect(n.v)[-1] AS last, "
      "count(*) * 10 AS c, CASE WHEN count(*) > 2 THEN 'big' ELSE 'small' "
      "END AS size ORDER BY g");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_EQ(g->NumRows(), 2u);
  EXPECT_EQ(g->rows()[0][1].AsInt(), 2);  // a: [1, 2] (null skipped)
  EXPECT_EQ(g->rows()[0][2].AsInt(), 30);
  EXPECT_EQ(g->rows()[0][3].AsString(), "big");
  EXPECT_EQ(g->rows()[1][1].AsInt(), 3);  // b: [2, 3]
  EXPECT_EQ(g->rows()[1][2].AsInt(), 20);
  EXPECT_EQ(g->rows()[1][3].AsString(), "small");
}

TEST_F(ProjectionTest, BoundedTopKEqualsStableSortPrefix) {
  // Ties on g keep input (creation) order; SKIP/LIMIT cut the stable
  // sort's output, whatever the bound.
  const std::string q = "MATCH (n:N) RETURN n.g AS g, n.v AS v ORDER BY g";
  auto full = RunBoth(q);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->NumRows(), 5u);
  EXPECT_EQ(full->rows()[0][1].AsInt(), 1);
  EXPECT_EQ(full->rows()[1][1].AsInt(), 2);
  EXPECT_TRUE(full->rows()[2][1].is_null());
  EXPECT_EQ(full->rows()[3][1].AsInt(), 2);
  EXPECT_EQ(full->rows()[4][1].AsInt(), 3);
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (const auto& [skip, limit] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 0}, {0, 1}, {1, 3}, {2, 1}, {4, 10}, {0, 100}, {7, 2},
           {1, kMax}}) {  // skip + limit must not overflow
    auto part = RunBoth(q + " SKIP $s LIMIT $l",
                        ValueMap{{"s", Value::Int(skip)},
                                 {"l", Value::Int(limit)}});
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    size_t begin = std::min<size_t>(5, static_cast<size_t>(skip));
    size_t end = std::min<size_t>(5, begin + std::min<size_t>(5, limit));
    ASSERT_EQ(part->NumRows(), end - begin) << skip << "/" << limit;
    for (size_t i = begin; i < end; ++i) {
      for (size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(part->rows()[i - begin][c].ToString(),
                  full->rows()[i][c].ToString())
            << "SKIP " << skip << " LIMIT " << limit << " row " << i;
      }
    }
  }
}

TEST_F(ProjectionTest, LimitErrorSurfacesAfterOrderByKeys) {
  // An invalid LIMIT is reported once the keys are computed — so a key
  // error (1 / 0 at v = 2) wins over it, exactly as without the bound.
  ValueMap bad{{"l", Value::Int(-1)}};
  auto key_err = RunBoth(
      "MATCH (n:N) RETURN n.v AS v ORDER BY 1 / (n.v - 2) LIMIT $l", bad);
  ASSERT_FALSE(key_err.ok());
  EXPECT_NE(key_err.status().ToString().find("division by zero"),
            std::string::npos)
      << key_err.status().ToString();
  auto limit_err =
      RunBoth("MATCH (n:N) RETURN n.v AS v ORDER BY v LIMIT $l", bad);
  ASSERT_FALSE(limit_err.ok());
  EXPECT_NE(limit_err.status().ToString().find(
                "LIMIT must be a non-negative integer"),
            std::string::npos)
      << limit_err.status().ToString();
}

}  // namespace
}  // namespace gqlite
