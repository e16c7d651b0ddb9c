// Unit tests for the Volcano operators (§2 "Neo4j implementation") —
// exercised directly, below the planner: scans, Expand variants,
// variable-length expansion, Apply/OptionalApply, Filter, Unwind, Union,
// and PROFILE row counters.

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/frontend/parser.h"
#include "src/plan/operators.h"
#include "src/workload/generators.h"

namespace gqlite {
namespace {

class OperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = g_.CreateNode({"A"}, {{"v", Value::Int(1)}});
    b_ = g_.CreateNode({"B"}, {{"v", Value::Int(2)}});
    c_ = g_.CreateNode({"B"}, {{"v", Value::Int(3)}});
    ab_ = g_.CreateRelationship(a_, b_, "T").value();
    ac_ = g_.CreateRelationship(a_, c_, "U").value();
    cb_ = g_.CreateRelationship(c_, b_, "T").value();
    ctx_.graph = &g_;
    ctx_.eval.graph = &g_;
    static ValueMap no_params;
    ctx_.eval.parameters = &no_params;
  }

  OperatorPtr Unit() {
    static const Table* unit = new Table(Table::Unit());
    return std::make_unique<ArgumentOp>(std::vector<std::string>{}, unit);
  }

  Table Drain(Operator* op, size_t batch_size = RowBatch::kDefaultCapacity) {
    EXPECT_TRUE(op->Open().ok());
    RowBatch batch(batch_size);
    auto t = DrainPlan(op, &batch);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? *t : Table();
  }

  PropertyGraph g_;
  NodeId a_, b_, c_;
  RelId ab_, ac_, cb_;
  ExecContext ctx_;
};

TEST_F(OperatorTest, AllNodesScan) {
  AllNodesScanOp scan(Unit(), &ctx_, "n");
  Table t = Drain(&scan);
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.fields(), std::vector<std::string>{"n"});
  EXPECT_EQ(scan.rows_produced(), 3);
}

TEST_F(OperatorTest, AllNodesScanSkipsDeleted) {
  ASSERT_TRUE(g_.DeleteRelationship(ab_).ok());
  ASSERT_TRUE(g_.DeleteRelationship(ac_).ok());
  ASSERT_TRUE(g_.DeleteNode(a_).ok());
  AllNodesScanOp scan(Unit(), &ctx_, "n");
  EXPECT_EQ(Drain(&scan).NumRows(), 2u);
}

TEST_F(OperatorTest, NodeByLabelScan) {
  NodeByLabelScanOp scan(Unit(), &ctx_, "n", "B");
  Table t = Drain(&scan);
  EXPECT_EQ(t.NumRows(), 2u);
  NodeByLabelScanOp none(Unit(), &ctx_, "n", "Zzz");
  EXPECT_EQ(Drain(&none).NumRows(), 0u);
}

/// The property map of the first node pattern of `query` (the parsed
/// query must outlive the returned span).
std::span<const PropertyEntry> StartMap(const ast::Query& query) {
  const auto& m =
      static_cast<const ast::MatchClause&>(*query.parts[0].clauses[0]);
  return m.pattern.paths[0].start.properties;
}

TEST_F(OperatorTest, ScansTestThePatternOnTheRecord) {
  auto q = ParseQuery("MATCH (n {v: 3}) RETURN n");
  ASSERT_TRUE(q.ok());
  NodeByLabelScanOp by_label(Unit(), &ctx_, "n", "B", {{}, StartMap(*q)});
  Table t = Drain(&by_label);
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.rows()[0][0].AsNode(), c_);
  // Only survivors are rows: PROFILE counts 1, not the label's 2.
  EXPECT_EQ(by_label.rows_produced(), 1);
  EXPECT_EQ(by_label.Describe(), "NodeByLabelScan(n:B) {v}");

  AllNodesScanOp labeled(Unit(), &ctx_, "n", {{"B"}, StartMap(*q)});
  EXPECT_EQ(Drain(&labeled).NumRows(), 1u);
  EXPECT_EQ(labeled.Describe(), "AllNodesScan(n) :B {v}");
  AllNodesScanOp wrong_label(Unit(), &ctx_, "n", {{"A"}, StartMap(*q)});
  EXPECT_EQ(Drain(&wrong_label).NumRows(), 0u);
  AllNodesScanOp plain(Unit(), &ctx_, "n");
  EXPECT_EQ(plain.Describe(), "AllNodesScan(n)");
}

TEST_F(OperatorTest, ScanEvaluatesWantedValuesLazily) {
  // A key's value is evaluated at the first candidate that reaches it:
  // behind a key no candidate matches, or over an empty label, `1 / 0`
  // never runs; once a candidate reaches it, it raises.
  auto behind = ParseQuery("MATCH (n {v: 100, w: 1 / 0}) RETURN n");
  auto direct = ParseQuery("MATCH (n {w: 1 / 0}) RETURN n");
  ASSERT_TRUE(behind.ok() && direct.ok());
  NodeByLabelScanOp shielded(Unit(), &ctx_, "n", "B", {{}, StartMap(*behind)});
  EXPECT_EQ(Drain(&shielded).NumRows(), 0u);
  NodeByLabelScanOp empty(Unit(), &ctx_, "n", "Zzz", {{}, StartMap(*direct)});
  EXPECT_EQ(Drain(&empty).NumRows(), 0u);
  NodeByLabelScanOp raises(Unit(), &ctx_, "n", "B", {{}, StartMap(*direct)});
  ASSERT_TRUE(raises.Open().ok());
  RowBatch batch(RowBatch::kDefaultCapacity);
  auto t = DrainPlan(&raises, &batch);
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().ToString().find("division by zero"),
            std::string::npos)
      << t.status().ToString();
}

TEST_F(OperatorTest, ScanReadsParametersAndDrivingRows) {
  auto q = ParseQuery("MATCH (n {v: $want}) RETURN n");
  ASSERT_TRUE(q.ok());
  ValueMap params = {{"want", Value::Int(2)}};
  ctx_.eval.parameters = &params;
  NodeByLabelScanOp scan(Unit(), &ctx_, "n", "B", {{}, StartMap(*q)});
  Table t = Drain(&scan);
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.rows()[0][0].AsNode(), b_);
  // A null want matches nothing (3VL: null = x is null, not true).
  params["want"] = Value::Null();
  ctx_.ResolveBindings();
  EXPECT_EQ(Drain(&scan).NumRows(), 0u);

  // Correlated: the want is re-evaluated per driving row of `x`.
  auto c = ParseQuery("MATCH (n {v: x}) RETURN n");
  ASSERT_TRUE(c.ok());
  Table xs({"x"});
  for (int64_t x : {3, 1, 2}) xs.AddRow({Value::Int(x)});
  auto leaf = std::make_unique<ArgumentOp>(std::vector<std::string>{"x"}, &xs);
  AllNodesScanOp correlated(std::move(leaf), &ctx_, "n", {{}, StartMap(*c)});
  Table rows = Drain(&correlated, 1);
  ASSERT_EQ(rows.NumRows(), 3u);
  EXPECT_EQ(rows.rows()[0][1].AsNode(), c_);
  EXPECT_EQ(rows.rows()[1][1].AsNode(), a_);
  EXPECT_EQ(rows.rows()[2][1].AsNode(), b_);
}

TEST_F(OperatorTest, ExpandAllDirections) {
  auto make_expand = [&](ast::Direction dir, const char* type) {
    auto scan = std::make_unique<AllNodesScanOp>(Unit(), &ctx_, "n");
    ExpandSpec spec;
    spec.from_col = 0;
    spec.rel_var = "r";
    spec.to_var = "m";
    spec.direction = dir;
    if (type != nullptr) spec.types = {type};
    return std::make_unique<ExpandOp>(std::move(scan), &ctx_, spec);
  };
  auto out = make_expand(ast::Direction::kRight, nullptr);
  EXPECT_EQ(Drain(out.get()).NumRows(), 3u);
  auto in = make_expand(ast::Direction::kLeft, nullptr);
  EXPECT_EQ(Drain(in.get()).NumRows(), 3u);
  auto both = make_expand(ast::Direction::kBoth, nullptr);
  EXPECT_EQ(Drain(both.get()).NumRows(), 6u);
  auto typed = make_expand(ast::Direction::kRight, "T");
  EXPECT_EQ(Drain(typed.get()).NumRows(), 2u);
}

TEST_F(OperatorTest, DirectedExpandMatchesInterpreterAroundSelfLoop) {
  // x carries a self-loop, one in-edge (from a) and one out-edge (to b):
  // `->` and `<-` each walk only their adjacency half and must still see
  // the self-loop exactly once; `--` sees it once across both halves.
  auto g = std::make_shared<PropertyGraph>();
  NodeId x = g->CreateNode({"X"}, {{"name", Value::String("x")}});
  NodeId a = g->CreateNode({}, {{"name", Value::String("a")}});
  NodeId b = g->CreateNode({}, {{"name", Value::String("b")}});
  ASSERT_TRUE(g->CreateRelationship(x, x, "L").ok());
  ASSERT_TRUE(g->CreateRelationship(a, x, "T").ok());
  ASSERT_TRUE(g->CreateRelationship(x, b, "T").ok());
  EngineOptions vopts;
  CypherEngine volcano(vopts);
  volcano.set_default_graph(g);
  EngineOptions iopts;
  iopts.mode = ExecutionMode::kInterpreter;
  CypherEngine interp(iopts);
  interp.set_default_graph(g);
  const std::pair<const char*, size_t> cases[] = {
      {"MATCH (n:X)-[r]->(m) RETURN type(r) AS t, m.name AS m", 2},
      {"MATCH (n:X)<-[r]-(m) RETURN type(r) AS t, m.name AS m", 2},
      {"MATCH (n:X)-[r]-(m) RETURN type(r) AS t, m.name AS m", 3},
      {"MATCH (m)-[r]->(n:X) RETURN type(r) AS t, m.name AS m", 2},
      {"MATCH (m)<-[r]-(n:X) RETURN type(r) AS t, m.name AS m", 2},
  };
  for (const auto& [q, rows] : cases) {
    auto want = interp.Execute(q);
    auto got = volcano.Execute(q);
    ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    EXPECT_EQ(got->table.NumRows(), rows) << q;
    EXPECT_TRUE(want->table.SameBag(got->table))
        << q << "\ninterpreter:\n" << want->table.ToString()
        << "volcano:\n" << got->table.ToString();
  }
}

TEST_F(OperatorTest, ExpandIntoChecksBoundTarget) {
  // Schema [n, m]: all pairs via two scans, then ExpandInto over T.
  auto scan1 = std::make_unique<AllNodesScanOp>(Unit(), &ctx_, "n");
  auto scan2 =
      std::make_unique<AllNodesScanOp>(std::move(scan1), &ctx_, "m");
  ExpandSpec spec;
  spec.from_col = 0;
  spec.to_col = 1;
  spec.rel_var = "r";
  spec.direction = ast::Direction::kRight;
  ExpandOp into(std::move(scan2), &ctx_, spec);
  Table t = Drain(&into);
  EXPECT_EQ(t.NumRows(), 3u);  // exactly the three edges
}

TEST_F(OperatorTest, ExpandUniquenessColumns) {
  // (a)-[r1]->(x)-[r2]->(y): r2 must not reuse r1.
  auto scan = std::make_unique<AllNodesScanOp>(Unit(), &ctx_, "n");
  ExpandSpec s1;
  s1.from_col = 0;
  s1.rel_var = "r1";
  s1.to_var = "x";
  s1.direction = ast::Direction::kBoth;
  auto e1 = std::make_unique<ExpandOp>(std::move(scan), &ctx_, s1);
  ExpandSpec s2;
  s2.from_col = 2;
  s2.rel_var = "r2";
  s2.to_var = "y";
  s2.direction = ast::Direction::kBoth;
  s2.uniqueness_cols = {1};  // r1's column
  auto e2 = std::make_unique<ExpandOp>(std::move(e1), &ctx_, s2);
  Table with_uniq = Drain(e2.get());
  // Without the uniqueness column the bounce-back paths appear too.
  auto scan_b = std::make_unique<AllNodesScanOp>(Unit(), &ctx_, "n");
  auto e1b = std::make_unique<ExpandOp>(std::move(scan_b), &ctx_, s1);
  ExpandSpec s2b = s2;
  s2b.uniqueness_cols.clear();
  auto e2b = std::make_unique<ExpandOp>(std::move(e1b), &ctx_, s2b);
  Table without = Drain(e2b.get());
  EXPECT_LT(with_uniq.NumRows(), without.NumRows());
}

TEST_F(OperatorTest, HashJoinExpandAgreesWithExpand) {
  auto scan = std::make_unique<AllNodesScanOp>(Unit(), &ctx_, "n");
  ExpandSpec spec;
  spec.from_col = 0;
  spec.rel_var = "r";
  spec.to_var = "m";
  spec.direction = ast::Direction::kBoth;
  auto adj = std::make_unique<ExpandOp>(std::move(scan), &ctx_, spec);
  Table t1 = Drain(adj.get());
  auto scan2 = std::make_unique<AllNodesScanOp>(Unit(), &ctx_, "n");
  auto hj = std::make_unique<HashJoinExpandOp>(std::move(scan2), &ctx_, spec);
  Table t2 = Drain(hj.get());
  EXPECT_TRUE(t1.SameBag(t2));
}

TEST_F(OperatorTest, VarLengthExpandLengths) {
  GraphPtr chain = workload::MakeChain(4);  // 3 rels
  ExecContext cctx;
  cctx.graph = chain.get();
  cctx.eval.graph = chain.get();
  auto scan = std::make_unique<AllNodesScanOp>(Unit(), &cctx, "n");
  ExpandSpec spec;
  spec.from_col = 0;
  spec.rel_var = "rs";
  spec.to_var = "m";
  spec.direction = ast::Direction::kRight;
  auto vle = std::make_unique<VarLengthExpandOp>(std::move(scan), &cctx,
                                                 spec, 1, 2);
  Table t = Drain(vle.get());
  EXPECT_EQ(t.NumRows(), 5u);  // 3 length-1 + 2 length-2
  auto scan0 = std::make_unique<AllNodesScanOp>(Unit(), &cctx, "n");
  auto vle0 = std::make_unique<VarLengthExpandOp>(std::move(scan0), &cctx,
                                                  spec, 0, 1);
  EXPECT_EQ(Drain(vle0.get()).NumRows(), 7u);  // 4 zero + 3 one
}

TEST_F(OperatorTest, FilterKeepsOnlyTrue) {
  auto scan = std::make_unique<AllNodesScanOp>(Unit(), &ctx_, "n");
  auto pred = ParseExpression("n.v > 1");
  ASSERT_TRUE(pred.ok());
  FilterOp filter(std::move(scan), &ctx_, pred->get());
  Table t = Drain(&filter);
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST_F(OperatorTest, UnwindOperator) {
  auto expr = ParseExpression("[1, 2, 3]");
  ASSERT_TRUE(expr.ok());
  UnwindOp unwind(Unit(), &ctx_, expr->get(), "x");
  Table t = Drain(&unwind);
  EXPECT_EQ(t.NumRows(), 3u);
}

TEST_F(OperatorTest, ProfileCountersAfterExecution) {
  CypherEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE (:A)-[:T]->(:B), (:A)").ok());
  auto profile = engine.Profile("MATCH (a:A)-[:T]->(b:B) RETURN b");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_NE(profile->find("rows:"), std::string::npos) << *profile;
  EXPECT_NE(profile->find("result: 1 rows"), std::string::npos) << *profile;
}

TEST_F(OperatorTest, ExplainTreeShapes) {
  CypherEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE (:A)-[:T]->(:B)").ok());
  auto e1 = engine.Explain("MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(b) "
                           "RETURN a, b");
  ASSERT_TRUE(e1.ok());
  EXPECT_NE(e1->find("OptionalApply"), std::string::npos) << *e1;
  auto e2 = engine.Explain(
      "MATCH (a:A) RETURN a AS n UNION MATCH (b:B) RETURN b AS n");
  ASSERT_TRUE(e2.ok());
  EXPECT_NE(e2->find("Union"), std::string::npos) << *e2;
  auto e3 = engine.Explain("MATCH (a)-[:T*1..2]->(b) RETURN b");
  ASSERT_TRUE(e3.ok());
  EXPECT_NE(e3->find("VarLengthExpand"), std::string::npos) << *e3;
  auto e4 = engine.Explain("MATCH p = (a)-[:T]->(b) RETURN length(p)");
  ASSERT_TRUE(e4.ok());
  EXPECT_NE(e4->find("PatternMatch(fallback)"), std::string::npos) << *e4;
}

TEST_F(OperatorTest, RowBatchSelectionComposes) {
  RowBatch b(8);
  for (int i = 0; i < 6; ++i) b.Append({Value::Int(i)});
  EXPECT_EQ(b.size(), 6u);
  b.Select({0, 2, 3, 5});  // live values 0, 2, 3, 5
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b.row(1)[0].AsInt(), 2);
  b.Select({1, 3});  // live positions of the previous view → values 2, 5
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.row(0)[0].AsInt(), 2);
  EXPECT_EQ(b.row(1)[0].AsInt(), 5);
  b.Clear();
  EXPECT_EQ(b.size(), 0u);
  b.Append({Value::Int(7)});  // slot reuse after Clear keeps rows dense
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.row(0)[0].AsInt(), 7);
}

TEST_F(OperatorTest, BatchBoundariesDoNotChangeResults) {
  // The same pipeline drained at awkward morsel sizes (1, 2, 3, 7) must
  // produce the same bag as the default morsel — catches off-by-one
  // resume bugs at batch boundaries.
  auto make = [&]() {
    auto scan = std::make_unique<AllNodesScanOp>(Unit(), &ctx_, "n");
    ExpandSpec spec;
    spec.from_col = 0;
    spec.rel_var = "r";
    spec.to_var = "m";
    spec.direction = ast::Direction::kBoth;
    return std::make_unique<ExpandOp>(std::move(scan), &ctx_, spec);
  };
  auto ref_op = make();
  Table reference = Drain(ref_op.get());
  EXPECT_EQ(reference.NumRows(), 6u);
  for (size_t bs : {1u, 2u, 3u, 7u}) {
    auto op = make();
    Table t = Drain(op.get(), bs);
    EXPECT_TRUE(reference.SameBag(t)) << "batch_size=" << bs;
  }
}

TEST_F(OperatorTest, FilterUsesSelectionWithoutCopying) {
  auto scan = std::make_unique<AllNodesScanOp>(Unit(), &ctx_, "n");
  auto pred = ParseExpression("n.v > 1");
  ASSERT_TRUE(pred.ok());
  FilterOp filter(std::move(scan), &ctx_, pred->get());
  ASSERT_TRUE(filter.Open().ok());
  RowBatch batch(16);
  auto ok = filter.NextBatch(&batch);
  ASSERT_TRUE(ok.ok());
  ASSERT_TRUE(*ok);
  // 3 nodes scanned into the morsel, 2 survive through the selection.
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(filter.rows_produced(), 2);
  EXPECT_EQ(filter.batches_produced(), 1);
}

TEST_F(OperatorTest, VarLengthBatchBoundaries) {
  GraphPtr chain = workload::MakeChain(6);
  ExecContext cctx;
  cctx.graph = chain.get();
  cctx.eval.graph = chain.get();
  auto make = [&]() {
    auto scan = std::make_unique<AllNodesScanOp>(Unit(), &cctx, "n");
    ExpandSpec spec;
    spec.from_col = 0;
    spec.rel_var = "rs";
    spec.to_var = "m";
    spec.direction = ast::Direction::kRight;
    return std::make_unique<VarLengthExpandOp>(std::move(scan), &cctx,
                                               spec, 0, 3);
  };
  auto ref_op = make();
  Table reference = Drain(ref_op.get());
  for (size_t bs : {1u, 2u, 5u}) {
    auto op = make();
    EXPECT_TRUE(reference.SameBag(Drain(op.get(), bs))) << "batch_size=" << bs;
  }
}

TEST_F(OperatorTest, UnionOpDeduplicates) {
  std::vector<OperatorPtr> parts;
  parts.push_back(std::make_unique<AllNodesScanOp>(Unit(), &ctx_, "n"));
  parts.push_back(std::make_unique<AllNodesScanOp>(Unit(), &ctx_, "n"));
  UnionOp u(std::move(parts), /*all=*/false, {"n"});
  Table t = Drain(&u);
  EXPECT_EQ(t.NumRows(), 3u);  // deduplicated
  std::vector<OperatorPtr> parts2;
  parts2.push_back(std::make_unique<AllNodesScanOp>(Unit(), &ctx_, "n"));
  parts2.push_back(std::make_unique<AllNodesScanOp>(Unit(), &ctx_, "n"));
  UnionOp u2(std::move(parts2), /*all=*/true, {"n"});
  EXPECT_EQ(Drain(&u2).NumRows(), 6u);
}

}  // namespace
}  // namespace gqlite
