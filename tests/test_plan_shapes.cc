// Plan-shape regression fixtures: canonical graphs whose statistics make
// one plan clearly cheapest, with the EXPLAIN output asserted — operator
// choice (Expand vs HashJoinExpand), anchor selection, expand direction,
// and the per-operator `est. rows` annotations. A cost-model change that
// flips one of these shapes should have to explain itself here.

#include <gtest/gtest.h>

#include <string>

#include "src/core/engine.h"

namespace gqlite {
namespace {

/// 60 :A nodes, 2 :B nodes, one :R edge into each :B. Anchoring at :B
/// and expanding right-to-left touches ~2 rows; left-to-right ~60.
CypherEngine MakeLopsidedEngine(EngineOptions opts) {
  CypherEngine engine(std::move(opts));
  auto g = std::make_shared<PropertyGraph>();
  std::vector<NodeId> as;
  for (int i = 0; i < 60; ++i) {
    as.push_back(g->CreateNode({"A"}, {{"id", Value::Int(i)}}));
  }
  for (int i = 0; i < 2; ++i) {
    NodeId b = g->CreateNode({"B"}, {{"id", Value::Int(100 + i)}});
    EXPECT_TRUE(g->CreateRelationship(as[i], b, "R", {}).ok());
  }
  engine.set_default_graph(g);
  return engine;
}

TEST(PlanShapes, CostModeAnchorsAtTheSelectiveLabel) {
  CypherEngine engine = MakeLopsidedEngine(EngineOptions{});
  auto e = engine.Explain("MATCH (a:A)-[:R]->(b:B) RETURN a.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  // Anchor at :B (2 nodes), expand the hop right-to-left.
  EXPECT_NE(e->find("NodeByLabelScan(b:B)"), std::string::npos) << *e;
  EXPECT_NE(e->find("Expand(b<-:R<-a)"), std::string::npos) << *e;
  EXPECT_NE(e->find("est. rows"), std::string::npos) << *e;
}

TEST(PlanShapes, ForceRightOverridesTheCostChoice) {
  EngineOptions opts;
  opts.direction_policy = DirectionPolicy::kForceRight;
  CypherEngine engine = MakeLopsidedEngine(std::move(opts));
  auto e = engine.Explain("MATCH (a:A)-[:R]->(b:B) RETURN a.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_NE(e->find("NodeByLabelScan(a:A)"), std::string::npos) << *e;
  EXPECT_NE(e->find("Expand(a->:R->b)"), std::string::npos) << *e;
}

TEST(PlanShapes, UniquePropertyEqualityWinsTheAnchor) {
  CypherEngine engine = MakeLopsidedEngine(EngineOptions{});
  // b:B is rare (2 nodes), but a.id = 3 is unique (NDV 62 over 62
  // nodes): ~60/62 < 2 candidate rows, so the anchor goes to a.
  auto e = engine.Explain(
      "MATCH (a:A)-[:R]->(b:B) WHERE a.id = 3 RETURN b.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_NE(e->find("NodeByLabelScan(a:A)"), std::string::npos) << *e;
  EXPECT_NE(e->find("Expand(a->:R->b)"), std::string::npos) << *e;
}

/// Hub nodes drowning in untyped :X edges while :T is rare: an
/// adjacency expand from (a) scans ~200 edges per row to find the one
/// :T, a hash-join expand reads the 10-row :T relationship store once.
CypherEngine MakeNoisyAdjacencyEngine(EngineOptions opts) {
  CypherEngine engine(std::move(opts));
  auto g = std::make_shared<PropertyGraph>();
  std::vector<NodeId> nodes;
  for (int i = 0; i < 40; ++i) {
    nodes.push_back(g->CreateNode({"N"}, {{"id", Value::Int(i)}}));
  }
  for (int i = 0; i < 40; ++i) {
    for (int e = 0; e < 50; ++e) {
      EXPECT_TRUE(
          g->CreateRelationship(nodes[i], nodes[(i + e + 1) % 40], "X", {})
              .ok());
    }
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(
        g->CreateRelationship(nodes[i], nodes[(i + 7) % 40], "T", {}).ok());
  }
  engine.set_default_graph(g);
  return engine;
}

TEST(PlanShapes, FanOutFrontierPicksHashJoin) {
  // The hash join builds over the WHOLE relationship store, so it only
  // wins once the frontier outgrows the node count: after the :X fan-out
  // the frontier is ~2000 rows, and an adjacency expand of the :T hop
  // would rescan ~50 noisy edges per row. Direction is pinned so the
  // planner can't sidestep the scenario by walking the chain backwards.
  EngineOptions opts;
  opts.direction_policy = DirectionPolicy::kForceRight;
  CypherEngine engine = MakeNoisyAdjacencyEngine(std::move(opts));
  auto e = engine.Explain("MATCH (a:N)-[:X]->(b)-[:T]->(c) RETURN c.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_NE(e->find("HashJoinExpand"), std::string::npos) << *e;
  EXPECT_NE(e->find("Expand(a->:X->b)"), std::string::npos) << *e;
}

TEST(PlanShapes, ForcedAdjacencyOverridesTheJoinChoice) {
  EngineOptions opts;
  opts.expand_strategy = ExpandStrategy::kAdjacency;
  CypherEngine engine = MakeNoisyAdjacencyEngine(std::move(opts));
  auto e = engine.Explain("MATCH (a:N)-[:T]->(b) RETURN b.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e->find("HashJoinExpand"), std::string::npos) << *e;
  EXPECT_NE(e->find("Expand("), std::string::npos) << *e;
}

TEST(PlanShapes, ForcedHashJoinAppliesToRigidHops) {
  EngineOptions opts;
  opts.expand_strategy = ExpandStrategy::kHashJoin;
  CypherEngine engine = MakeLopsidedEngine(std::move(opts));
  auto e = engine.Explain("MATCH (a:A)-[:R]->(b:B) RETURN a.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_NE(e->find("HashJoinExpand"), std::string::npos) << *e;
}

TEST(PlanShapes, EstimatesShrinkThroughSelectiveFilters) {
  CypherEngine engine = MakeLopsidedEngine(EngineOptions{});
  // The scan estimate reflects the label count; a filtered estimate is
  // annotated on the FilterOp and is smaller than the scan's.
  auto e = engine.Explain("MATCH (a:A) WHERE a.id = 3 RETURN a.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_NE(e->find("NodeByLabelScan(a:A)  (est. rows: 60)"),
            std::string::npos)
      << *e;
  EXPECT_NE(e->find("Filter"), std::string::npos) << *e;
}

TEST(PlanShapes, AnchorPatternMapMovesIntoTheScan) {
  CypherEngine engine = MakeLopsidedEngine(EngineOptions{});
  // The map is tested by the scan: no Filter, and the scan's estimate is
  // the post-predicate one (60 :A x 1/NDV(id) = 60/62).
  auto e = engine.Explain("MATCH (a:A {id: 3}) RETURN a.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_NE(e->find("NodeByLabelScan(a:A) {id}  (est. rows: 1.0)"),
            std::string::npos)
      << *e;
  EXPECT_EQ(e->find("Filter"), std::string::npos) << *e;
  // An expand target keeps its map as a filter (forced left-to-right:
  // the chain anchors at b).
  EngineOptions ltr;
  ltr.direction_policy = DirectionPolicy::kForceRight;
  CypherEngine forced = MakeLopsidedEngine(ltr);
  auto t = forced.Explain("MATCH (b:B)<-[:R]-(a:A {id: 1}) RETURN a.id");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_NE(t->find("NodeByLabelScan(b:B)  "), std::string::npos) << *t;
  EXPECT_NE(t->find("Filter"), std::string::npos) << *t;
}

TEST(PlanShapes, VarLengthKeepsAdjacencyUnderForcedHashJoin) {
  // HashJoinExpand has no var-length form; the force must not break
  // var-length hops (they stay VarLengthExpand).
  EngineOptions opts;
  opts.expand_strategy = ExpandStrategy::kHashJoin;
  CypherEngine engine = MakeLopsidedEngine(std::move(opts));
  auto e = engine.Explain("MATCH (a:B)-[:R*1..2]->(b) RETURN b.id");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_NE(e->find("VarLengthExpand"), std::string::npos) << *e;
  EXPECT_EQ(e->find("HashJoinExpand"), std::string::npos) << *e;
}

/// A small social graph: 40 :Person nodes with three :FRIEND edges each,
/// every person :IN one of 4 :City nodes. The unlabeled middle node of a
/// Person-FRIEND-City chain matches people only, but a cost model that
/// treats labels as independent estimates far fewer rows through it and
/// is tempted to anchor there with an AllNodesScan.
CypherEngine MakePersonCityEngine() {
  CypherEngine engine;
  auto g = std::make_shared<PropertyGraph>();
  std::vector<NodeId> cities;
  for (int i = 0; i < 4; ++i) {
    cities.push_back(g->CreateNode(
        {"City"}, {{"name", Value::String("C" + std::to_string(i))}}));
  }
  std::vector<NodeId> people;
  for (int i = 0; i < 40; ++i) {
    people.push_back(g->CreateNode({"Person"}, {{"id", Value::Int(i)}}));
    EXPECT_TRUE(g->CreateRelationship(people[i], cities[i % 4], "IN", {}).ok());
  }
  for (int i = 0; i < 40; ++i) {
    for (int d : {1, 7, 13}) {
      EXPECT_TRUE(
          g->CreateRelationship(people[i], people[(i + d) % 40], "FRIEND", {})
              .ok());
    }
  }
  engine.set_default_graph(g);
  return engine;
}

TEST(PlanShapes, OneHopAnchorsAtTheLabelScan) {
  CypherEngine engine = MakePersonCityEngine();
  auto e = engine.Explain("MATCH (p:Person)-[:FRIEND]->(q) RETURN count(*)");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_NE(e->find("NodeByLabelScan(p:Person)"), std::string::npos) << *e;
  EXPECT_NE(e->find("Expand(p->:FRIEND->q)"), std::string::npos) << *e;
  EXPECT_EQ(e->find("AllNodesScan"), std::string::npos) << *e;
}

TEST(PlanShapes, TwoHopChainNeverAnchorsAtTheUnlabeledMiddle) {
  CypherEngine engine = MakePersonCityEngine();
  auto e = engine.Explain(
      "MATCH (p:Person)-[:FRIEND]->(q)-[:IN]->(c:City) RETURN count(*)");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  // Anchor at the 4 cities and walk the chain right-to-left.
  EXPECT_NE(e->find("NodeByLabelScan(c:City)"), std::string::npos) << *e;
  EXPECT_NE(e->find("Expand(c<-:IN<-q)"), std::string::npos) << *e;
  EXPECT_NE(e->find("Expand(q<-:FRIEND<-p)"), std::string::npos) << *e;
  EXPECT_EQ(e->find("AllNodesScan"), std::string::npos) << *e;
}

}  // namespace
}  // namespace gqlite
