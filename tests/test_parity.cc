// Property/parity tests (DESIGN.md §7): the reference interpreter (the
// paper's formal semantics, §4) and the Volcano runtime (§2 "Neo4j
// implementation") must produce identical result *bags* on a corpus of
// read queries over randomized graphs — and all planner modes must agree
// with each other ("implementations are free to re-order the execution of
// clauses if this does not change the semantics of the query", §2).

#include <gtest/gtest.h>

#include "src/frontend/analyzer.h"
#include "src/frontend/parser.h"
#include "src/plan/runtime.h"
#include "src/workload/generators.h"
#include "tests/test_interp_util.h"

namespace gqlite {
namespace {

/// The read-query corpus: clause combinations, variable-length patterns,
/// optional matches, aggregation, nulls, unions, predicates.
const char* kCorpus[] = {
    "MATCH (a) RETURN count(*) AS c",
    "MATCH (a:A) RETURN a ORDER BY id(a)",
    "MATCH (a)-[r]->(b) RETURN a, r, b",
    "MATCH (a)-[r:T]->(b) RETURN id(a), id(b) ORDER BY id(a), id(b)",
    "MATCH (a)<-[r:U]-(b) RETURN count(*) AS c",
    "MATCH (a)-[r]-(b) RETURN count(*) AS c",
    "MATCH (a:A)-[:T]->(b:B) RETURN a.v, b.v",
    "MATCH (a)-[:T]->(b)-[:T]->(c) RETURN id(a), id(c)",
    "MATCH (a)-[:T]->(b)<-[:U]-(c) RETURN count(*) AS c",
    "MATCH (a)-[*1..2]->(b) RETURN count(*) AS c",
    "MATCH (a)-[:T*1..3]->(b) RETURN id(a), id(b)",
    "MATCH (a)-[rs:T*0..2]->(b) RETURN size(rs) AS hops, count(*) AS c",
    "MATCH (a)-[*2]-(b) RETURN count(*) AS c",
    "MATCH (a)-[r]->(a) RETURN count(*) AS c",
    "MATCH (a), (b) WHERE id(a) < id(b) RETURN count(*) AS c",
    "MATCH (a)-[r1]->(b), (b)-[r2]->(c) RETURN count(*) AS c",
    "MATCH (a) OPTIONAL MATCH (a)-[:T]->(b) RETURN id(a), b",
    "MATCH (a) OPTIONAL MATCH (a)-[:T]->(b:B) WHERE b.v > 2 "
    "RETURN id(a), b.v",
    "MATCH (a:A) OPTIONAL MATCH (a)-[r:U]->(b) RETURN a.v, count(b) AS c",
    "MATCH (a) WHERE a.v >= 3 RETURN a.v ORDER BY a.v DESC LIMIT 3",
    "MATCH (a) WITH a.v AS v WHERE v > 1 RETURN v ORDER BY v SKIP 1",
    "MATCH (a) RETURN DISTINCT a.v AS v ORDER BY v",
    "MATCH (a) RETURN a.v % 3 AS g, count(*) AS c, sum(a.v) AS s, "
    "min(a.v) AS mn, max(a.v) AS mx, avg(a.v) AS av ORDER BY g",
    "MATCH (a) RETURN collect(DISTINCT a.v) AS vs",
    "MATCH (a)-[r]->() RETURN type(r) AS t, count(*) AS c ORDER BY t",
    "MATCH (a) WHERE (a)-[:T]->() RETURN count(*) AS c",
    "MATCH (a) WHERE NOT (a)-[:U]->(:B) RETURN count(*) AS c",
    "MATCH (a) WHERE a:A OR a:B RETURN count(*) AS c",
    "MATCH (a) WHERE exists(a.v) AND a.v IN [1, 2, 3] RETURN count(*) AS c",
    "UNWIND [1, 2, 3] AS x MATCH (a {v: x}) RETURN x, count(*) AS c",
    "MATCH (a) UNWIND [a.v, a.v + 10] AS x RETURN count(x) AS c",
    "MATCH (a:A) RETURN a.v AS v UNION MATCH (b:B) RETURN b.v AS v",
    "MATCH (a:A) RETURN a.v AS v UNION ALL MATCH (b:B) RETURN b.v AS v",
    "MATCH (a) WITH count(*) AS n MATCH (b) RETURN n, count(*) AS m",
    "MATCH (a)-[r:T {w: 1}]->(b) RETURN count(*) AS c",
    "MATCH (a {v: 1})-[:T]->(b) RETURN id(b) ORDER BY id(b)",
    // A map entry reading a node bound earlier in the path: the
    // reference matcher has `a` when it checks `b`, whichever end the
    // chain is anchored at.
    "MATCH (a)-[:T]->(b:B {v: a.v}) RETURN id(a), id(b)",
    "MATCH (a:A)-[:T]->(b:B {v: a.v % 3, x: a.v}) RETURN count(*) AS c",
    "MATCH p0 = (a)-[:T]->(b) RETURN count(*) AS c",  // fallback operator
    "MATCH (a) RETURN CASE WHEN a.v > 2 THEN 'hi' ELSE 'lo' END AS bucket, "
    "count(*) AS c ORDER BY bucket",
    "MATCH (a) RETURN [x IN [1, 2, 3] WHERE x > a.v % 2 | x * 2] AS xs "
    "ORDER BY id(a) LIMIT 2",
    "MATCH (a) WHERE a.v IS NOT NULL RETURN a.v ORDER BY a.v LIMIT 5",
    "MATCH (x)-[*0..]->(x) RETURN count(*) AS c",
    "MATCH (a)-[rs:T*1..2]->(b) WHERE all(r IN rs WHERE r.w >= 0) "
    "RETURN count(*) AS c",
    "MATCH (a) WHERE any(x IN [a.v, 3] WHERE x = 3) RETURN count(*) AS c",
    "MATCH (a) WITH collect(a.v) AS vs "
    "RETURN reduce(s = 0, v IN vs | s + v) AS total",
    "MATCH (a)-[r]->(b) RETURN reduce(s = '', t IN [type(r)] | s + t) AS t, "
    "count(*) AS c ORDER BY t",
    "MATCH (a) RETURN single(l IN labels(a) WHERE l = 'A') AS isA, "
    "count(*) AS c ORDER BY isA",
    // Name-resolved subtrees over bound rows: a pattern predicate whose
    // property expression reads a later-bound variable, and one inside a
    // comprehension reading its local.
    "MATCH (a), (b) WHERE (a)-[:T {w: b.v % 2}]->() RETURN count(*) AS c",
    "MATCH (a) RETURN id(a) AS i, "
    "[x IN [0, 1] WHERE (a)-[:T {w: x}]->() | x * a.v] AS xs ORDER BY i",
};

/// One forced planner configuration: the per-hop operator and the chain
/// direction policy.
struct PlanConfig {
  const char* name;
  ExpandStrategy expand;
  DirectionPolicy direction;
};

/// The cost-based default, the naive left-to-right baseline and the
/// forced hash-join expand. They must all agree: the forced plans are
/// about speed, not results.
const PlanConfig kConfigs[] = {
    {"cost/cost", ExpandStrategy::kCost, DirectionPolicy::kCost},
    {"adjacency/force-right", ExpandStrategy::kAdjacency,
     DirectionPolicy::kForceRight},
    {"hashjoin/cost", ExpandStrategy::kHashJoin, DirectionPolicy::kCost},
};

Result<Table> RunVolcano(GraphPtr graph, const std::string& query,
                         const PlanConfig& config = kConfigs[0]) {
  GQL_ASSIGN_OR_RETURN(ast::Query q, ParseQuery(query));
  GQL_ASSIGN_OR_RETURN(QueryInfo info, Analyze(q));
  (void)info;
  GraphCatalog catalog;
  catalog.RegisterGraph(GraphCatalog::kDefaultGraphName, graph);
  uint64_t rand_state = 0xC0FFEE;
  ValueMap params;
  PlannerOptions opts;
  opts.expand_strategy = config.expand;
  opts.direction_policy = config.direction;
  // This harness drives RunPlanned below CypherEngine, so it must honor
  // the CI morsel-size override itself (the batch-size-1 sanitizer leg
  // relies on this corpus walking the batch-boundary resume paths).
  GQL_ASSIGN_OR_RETURN(opts.batch_size, EffectiveBatchSize(opts.batch_size));
  // Keep the ast::Query alive through execution: RunPlanned takes it by
  // reference and finishes before returning.
  return RunPlanned(&catalog, graph, &params, opts, &rand_state, q);
}

class ParityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParityTest, InterpreterVsVolcanoOnRandomGraphs) {
  const char* query = GetParam();
  for (uint64_t seed : {1u, 7u, 23u}) {
    GraphPtr g = workload::MakeRandomGraph(24, 40, seed);
    auto reference = testutil::RunInterp(g, query);
    ASSERT_TRUE(reference.ok())
        << query << "\n  " << reference.status().ToString();
    for (const PlanConfig& config : kConfigs) {
      auto planned = RunVolcano(g, query, config);
      ASSERT_TRUE(planned.ok())
          << query << "\n  " << planned.status().ToString();
      EXPECT_TRUE(reference->SameBag(*planned))
          << "seed " << seed << " planner config: " << config.name
          << "\nquery: " << query << "\ninterpreter:\n"
          << reference->ToString() << "volcano:\n" << planned->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, ParityTest, ::testing::ValuesIn(kCorpus));

TEST(ParityDense, CliqueAndGrid) {
  // Dense graphs stress relationship isomorphism and variable-length
  // multiplicities.
  const char* queries[] = {
      "MATCH (a)-[*1..2]->(b) RETURN count(*) AS c",
      "MATCH (a)-[:KNOWS]->(b)-[:KNOWS]->(c) WHERE a.idx < c.idx "
      "RETURN count(*) AS c",
      "MATCH (a)-[:RIGHT*0..3]->(b) RETURN count(*) AS c",
      "MATCH (a)-[:RIGHT]->(b)-[:DOWN]->(c) RETURN count(*) AS c",
  };
  std::vector<GraphPtr> graphs = {workload::MakeClique(5),
                                  workload::MakeGrid(3, 3)};
  for (const auto& g : graphs) {
    for (const char* q : queries) {
      auto reference = testutil::RunInterp(g, q);
      ASSERT_TRUE(reference.ok()) << q;
      auto planned = RunVolcano(g, q);
      ASSERT_TRUE(planned.ok()) << q << planned.status().ToString();
      EXPECT_TRUE(reference->SameBag(*planned))
          << q << "\ninterp:\n" << reference->ToString() << "volcano:\n"
          << planned->ToString();
    }
  }
}

/// Two :L nodes, {k: 1, d: 0} and {k: 2, d: 1}.
GraphPtr TwoLNodes() {
  auto g = std::make_shared<PropertyGraph>();
  g->CreateNode({"L"}, {{"k", Value::Int(1)}, {"d", Value::Int(0)}});
  g->CreateNode({"L"}, {{"k", Value::Int(2)}, {"d", Value::Int(1)}});
  return g;
}

TEST(ParityPatternMap, MapIsCheckedWhenTheNodeIsBoundBeforeWhere) {
  // The map is a condition on the node, checked when it is bound; WHERE
  // sees only the node it keeps. Filtering WHERE first divides by the
  // other node's d = 0.
  GraphPtr g = TwoLNodes();
  const char* q = "MATCH (n:L {k: 2}) WHERE 1 / n.d > 0 RETURN n.k";
  auto reference = testutil::RunInterp(g, q);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->NumRows(), 1u);
  EXPECT_EQ(reference->rows()[0][0].AsInt(), 2);
  for (const PlanConfig& config : kConfigs) {
    auto planned = RunVolcano(g, q, config);
    ASSERT_TRUE(planned.ok())
        << config.name << ": " << planned.status().ToString();
    EXPECT_TRUE(reference->SameBag(*planned))
        << config.name << "\n" << planned->ToString();
  }
}

TEST(ParityPatternMap, MapCannotReadTheNodeItConstrains) {
  // The map is evaluated before its own node is bound: `n.d` is an
  // unbound variable on both runtimes, not a self-join.
  GraphPtr g = TwoLNodes();
  const char* q = "MATCH (n:L {k: n.d}) RETURN n.k";
  auto reference = testutil::RunInterp(g, q);
  ASSERT_FALSE(reference.ok()) << reference->ToString();
  EXPECT_NE(reference.status().ToString().find("not bound"),
            std::string::npos)
      << reference.status().ToString();
  for (const PlanConfig& config : kConfigs) {
    auto planned = RunVolcano(g, q, config);
    ASSERT_FALSE(planned.ok()) << config.name << "\n" << planned->ToString();
    EXPECT_EQ(planned.status().ToString(), reference.status().ToString())
        << config.name;
  }
}

TEST(ParityMorphism, ModesAgreeAcrossEngines) {
  GraphPtr g = workload::MakeCycle(4);
  const char* q = "MATCH (a)-[*1..4]->(a) RETURN count(*) AS c";
  for (Morphism m : {Morphism::kEdgeIsomorphism, Morphism::kNodeIsomorphism,
                     Morphism::kHomomorphism}) {
    MatchOptions mo;
    mo.morphism = m;
    mo.max_var_length = 4;
    auto reference = testutil::RunInterp(g, q, {}, mo);
    ASSERT_TRUE(reference.ok());
    auto parsed = ParseQuery(q);
    ASSERT_TRUE(parsed.ok());
    ast::Query query = std::move(parsed).value();
    GraphCatalog catalog;
    catalog.RegisterGraph(GraphCatalog::kDefaultGraphName, g);
    uint64_t rand_state = 1;
    ValueMap params;
    PlannerOptions opts;
    opts.match = mo;
    auto batch = EffectiveBatchSize(opts.batch_size);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    opts.batch_size = *batch;
    auto planned =
        RunPlanned(&catalog, g, &params, opts, &rand_state, query);
    ASSERT_TRUE(planned.ok());
    EXPECT_TRUE(reference->SameBag(*planned)) << static_cast<int>(m);
  }
}

}  // namespace
}  // namespace gqlite
