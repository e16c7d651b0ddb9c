// Unit tests for the morsel-driven parallel runtime (src/exec/): the
// worker pool, the morsel dispatcher, partitioned scans, the
// parallel-aggregation merge (AggregationState + Aggregator partials),
// and the engine-level plumbing (num_threads, EXPLAIN/PROFILE surface,
// serial fallbacks for unsafe plans). The end-to-end equivalence sweep
// lives in test_differential.cc; the TCK parallel leg in test_tck.cc.

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <thread>

#include "src/common/sync.h"
#include "src/core/engine.h"
#include "src/exec/parallel.h"
#include "src/exec/worker_pool.h"
#include "src/frontend/parser.h"
#include "src/interp/projection.h"
#include "src/plan/runtime.h"
#include "src/workload/generators.h"

namespace gqlite {
namespace {

// ---- WorkerPool -------------------------------------------------------------

TEST(WorkerPool, RunsCallerAndPoolThreads) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  AtomicCounter ran;
  std::set<size_t> indices;
  Mutex mu;
  ASSERT_TRUE(pool
                  .RunOnAll([&](size_t w) {
                    ran.FetchAdd(1);
                    MutexLock lock(&mu);
                    indices.insert(w);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(ran.Load(), 4u);  // 3 pool threads + the calling thread
  EXPECT_EQ(indices, (std::set<size_t>{0, 1, 2, 3}));
}

TEST(WorkerPool, ReportsLowestIndexedFailure) {
  WorkerPool pool(3);
  Status st = pool.RunOnAll([&](size_t w) {
    if (w >= 2) {
      return Status::EvaluationError("worker " + std::to_string(w));
    }
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("worker 2"), std::string::npos);
}

TEST(WorkerPool, ReusableAcrossJobs) {
  WorkerPool pool(2);
  for (int job = 0; job < 50; ++job) {
    AtomicCounter ran;
    ASSERT_TRUE(pool
                    .RunOnAll([&](size_t) {
                      ran.FetchAdd(1);
                      return Status::OK();
                    })
                    .ok());
    ASSERT_EQ(ran.Load(), 3u);
  }
}

TEST(WorkerPool, ZeroThreadsRunsOnCaller) {
  WorkerPool pool(0);
  int ran = 0;
  ASSERT_TRUE(pool
                  .RunOnAll([&](size_t w) {
                    EXPECT_EQ(w, 0u);
                    ++ran;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(ran, 1);
}

// ---- WorkerPool::RunTasks (merge-stage submission) --------------------------

TEST(WorkerPool, RunTasksRunsEveryTaskExactlyOnce) {
  WorkerPool pool(3);
  constexpr size_t kTasks = 37;  // more tasks than workers: claims loop
  std::vector<int> ran(kTasks, 0);
  Mutex mu;
  ASSERT_TRUE(pool
                  .RunTasks(kTasks,
                            [&](size_t t) {
                              MutexLock lock(&mu);
                              ++ran[t];
                              return Status::OK();
                            })
                  .ok());
  for (size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(ran[t], 1) << "task " << t;
  }
}

TEST(WorkerPool, RunTasksReportsLowestTaskIndexFailure) {
  WorkerPool pool(3);
  // Two failing tasks: whatever worker hits one first in wall-clock
  // time, the reported error must be task 2's (lowest index wins).
  for (int run = 0; run < 20; ++run) {
    Status st = pool.RunTasks(16, [&](size_t t) {
      if (t == 2 || t == 11) {
        return Status::EvaluationError("task " + std::to_string(t));
      }
      return Status::OK();
    });
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("task 2"), std::string::npos)
        << "run " << run << ": " << st.ToString();
  }
}

TEST(WorkerPool, RunTasksZeroTasksIsANoOp) {
  WorkerPool pool(2);
  int ran = 0;
  ASSERT_TRUE(pool
                  .RunTasks(0,
                            [&](size_t) {
                              ++ran;
                              return Status::OK();
                            })
                  .ok());
  EXPECT_EQ(ran, 0);
}

// ---- MorselDispatcher -------------------------------------------------------

TEST(MorselDispatcher, CoversDomainWithoutOverlap) {
  MorselDispatcher d(100, 16);
  EXPECT_EQ(d.num_morsels(), 7u);  // ceil(100/16)
  std::vector<bool> seen(100, false);
  ScanMorsel m;
  size_t last_index = 0;
  size_t count = 0;
  while (d.Next(&m)) {
    EXPECT_EQ(m.index, count) << "claims arrive in range order";
    last_index = m.index;
    for (size_t i = m.begin; i < m.end; ++i) {
      EXPECT_FALSE(seen[i]) << "position " << i << " claimed twice";
      seen[i] = true;
    }
    ++count;
  }
  (void)last_index;
  EXPECT_EQ(count, 7u);
  for (size_t i = 0; i < 100; ++i) EXPECT_TRUE(seen[i]);
}

TEST(MorselDispatcher, EmptyDomain) {
  MorselDispatcher d(0, 16);
  EXPECT_EQ(d.num_morsels(), 0u);
  ScanMorsel m;
  EXPECT_FALSE(d.Next(&m));
}

TEST(MorselDispatcher, ChunkScalesWithDomainAndFloors) {
  EXPECT_EQ(MorselChunk(10, 4), 16u);     // floor wins on tiny domains
  EXPECT_EQ(MorselChunk(3200, 4), 100u);  // ~8 morsels per worker
  EXPECT_GE(MorselChunk(1u << 20, 4), (1u << 20) / 32);
}

// ---- AggregationState: parallel-aggregation merge ---------------------------

/// Parses `RETURN ...` and hands back the projection body.
class BodyFixture {
 public:
  explicit BodyFixture(const std::string& ret) {
    auto q = ParseQuery(ret);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    query_ = std::move(q).value();
  }
  const ast::ProjectionBody& body() const {
    return static_cast<const ast::ReturnClause&>(
               *query_.parts[0].clauses.back())
        .body;
  }

 private:
  ast::Query query_;
};

Table IntTable(std::vector<std::string> fields,
               std::vector<std::vector<int64_t>> rows) {
  Table t(std::move(fields));
  for (const auto& r : rows) {
    ValueList row;
    for (int64_t v : r) row.push_back(Value::Int(v));
    t.AddRow(std::move(row));
  }
  return t;
}

/// Accumulates `input` split into `partitions` separate states merged in
/// order, and returns the finished rows.
Result<Table> MergePartitions(const ast::ProjectionBody& body,
                              const Table& input,
                              const std::vector<size_t>& splits) {
  EvalContext ctx;
  BindTable binds;
  std::vector<AggregationState> states;
  size_t row = 0;
  for (size_t len : splits) {
    AggregationState st = AggregationState::Plan(body, input.fields(), &binds);
    binds.Resolve(nullptr, nullptr);
    Table part(input.fields());
    for (size_t i = 0; i < len && row < input.NumRows(); ++i, ++row) {
      part.AddRow(input.rows()[row]);
    }
    GQL_RETURN_IF_ERROR(st.Accumulate(part, ctx));
    states.push_back(std::move(st));
  }
  AggregationState merged = std::move(states[0]);
  for (size_t i = 1; i < states.size(); ++i) {
    GQL_RETURN_IF_ERROR(merged.MergeFrom(std::move(states[i])));
  }
  return merged.Finish(ctx);
}

TEST(AggregationMerge, MatchesSerialAcrossPartitionings) {
  BodyFixture fx(
      "RETURN x AS x, count(*) AS c, sum(y) AS s, min(y) AS mn, "
      "max(y) AS mx, avg(y) AS av, collect(y) AS ys, "
      "count(DISTINCT y) AS d");
  Table input = IntTable({"x", "y"}, {{1, 10},
                                      {2, 20},
                                      {1, 30},
                                      {2, 20},
                                      {1, 10},
                                      {3, 5},
                                      {1, 40}});
  EvalContext ctx;
  auto serial = EvaluateProjection(fx.body(), input, ctx);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  // Every partitioning must reproduce the serial result byte for byte:
  // group order (first occurrence), collect order, DISTINCT dedup.
  for (const std::vector<size_t>& splits :
       std::vector<std::vector<size_t>>{{7},
                                        {1, 1, 1, 1, 1, 1, 1},  // one-row
                                        {3, 4},
                                        {2, 0, 5},     // empty middle morsel
                                        {0, 7, 0}}) {  // empty edge morsels
    auto merged = MergePartitions(fx.body(), input, splits);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ(serial->ToString(), merged->ToString());
  }
}

TEST(AggregationMerge, EmptyMorselsProduceTheNeutralRow) {
  BodyFixture fx(
      "RETURN count(*) AS c, sum(y) AS s, avg(y) AS a, collect(y) AS ys, "
      "min(y) AS mn");
  Table input = IntTable({"y"}, {});
  auto merged = MergePartitions(fx.body(), input, {0, 0, 0});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged->NumRows(), 1u);
  EXPECT_EQ(merged->rows()[0][0].ToString(), "0");     // count
  EXPECT_EQ(merged->rows()[0][1].ToString(), "0");     // sum
  EXPECT_EQ(merged->rows()[0][2].ToString(), "null");  // avg
  EXPECT_EQ(merged->rows()[0][3].ToString(), "[]");    // collect
  EXPECT_EQ(merged->rows()[0][4].ToString(), "null");  // min
}

TEST(AggregationMerge, SumOverflowInMergeRaisesEvaluationError) {
  BodyFixture fx("RETURN sum(y) AS s");
  constexpr int64_t kBig = std::numeric_limits<int64_t>::max() - 1;
  Table input = IntTable({"y"}, {{kBig}, {kBig}});
  // Each one-row partition sums fine; combining the partial sums is the
  // overflow — the merge must raise exactly like serial accumulation
  // would, not wrap.
  auto merged = MergePartitions(fx.body(), input, {1, 1});
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().ToString().find("overflow"), std::string::npos)
      << merged.status().ToString();
}

TEST(AggregationMerge, AvgStaysExactOverIntegerPartitions) {
  BodyFixture fx("RETURN avg(y) AS a");
  // 2^53 + 2 and 2: the float path would round the sum; the int path
  // must keep the mean exact ((2^53 + 4) / 2 = 2^52 + 2).
  Table input(std::vector<std::string>{"y"});
  ValueList r1, r2;
  r1.push_back(Value::Int((int64_t{1} << 53) + 2));
  r2.push_back(Value::Int(2));
  input.AddRow(std::move(r1));
  input.AddRow(std::move(r2));
  auto merged = MergePartitions(fx.body(), input, {1, 1});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->rows()[0][0].AsFloat(),
            static_cast<double>((int64_t{1} << 52) + 2));
}

TEST(AggregationMerge, DistinctCollectKeepsFirstOccurrenceOrder) {
  BodyFixture fx("RETURN collect(DISTINCT y) AS ys");
  Table input = IntTable({"y"}, {{3}, {1}, {3}, {2}, {1}, {4}});
  for (const std::vector<size_t>& splits :
       std::vector<std::vector<size_t>>{{6}, {2, 2, 2}, {1, 5}}) {
    auto merged = MergePartitions(fx.body(), input, splits);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ(merged->rows()[0][0].ToString(), "[3, 1, 2, 4]");
  }
}

/// Runs `input` through the full partitioned-aggregation merge exactly
/// as the parallel runtime does: split into `splits` ranges, accumulate
/// each range into a PartitionedAggregationState with global (range,
/// row) stamps, merge partition p of every range in range order, Finish
/// each partition with stamps, and interleave the per-partition group
/// streams back into ascending stamp order.
Result<Table> MergePartitioned(const ast::ProjectionBody& body,
                               const Table& input,
                               const std::vector<size_t>& splits,
                               size_t partitions) {
  EvalContext ctx;
  BindTable binds;
  AggregationState proto = AggregationState::Plan(body, input.fields(), &binds);
  binds.Resolve(nullptr, nullptr);
  std::vector<std::unique_ptr<PartitionedAggregationState>> ranges;
  size_t row = 0;
  for (size_t range = 0; range < splits.size(); ++range) {
    auto st = std::make_unique<PartitionedAggregationState>(proto, partitions);
    for (size_t i = 0; i < splits[range] && row < input.NumRows();
         ++i, ++row) {
      GQL_RETURN_IF_ERROR(st->AccumulateRow(input.rows()[row], ctx,
                                            GroupStamp{range, i}));
    }
    ranges.push_back(std::move(st));
  }
  std::vector<Table> part_tables;
  std::vector<std::vector<GroupStamp>> part_stamps(partitions);
  for (size_t p = 0; p < partitions; ++p) {
    AggregationState merged = std::move(ranges[0]->partition(p));
    for (size_t r = 1; r < ranges.size(); ++r) {
      GQL_RETURN_IF_ERROR(merged.MergeFrom(std::move(ranges[r]->partition(p))));
    }
    GQL_ASSIGN_OR_RETURN(Table t, merged.Finish(ctx, &part_stamps[p]));
    part_tables.push_back(std::move(t));
  }
  Table out(part_tables[0].fields());
  std::vector<size_t> pos(partitions, 0);
  while (true) {
    size_t best = partitions;
    for (size_t p = 0; p < partitions; ++p) {
      if (pos[p] >= part_stamps[p].size()) continue;
      if (best == partitions ||
          part_stamps[p][pos[p]] < part_stamps[best][pos[best]]) {
        best = p;
      }
    }
    if (best == partitions) break;
    out.AddRow(std::move(part_tables[best].mutable_rows()[pos[best]]));
    ++pos[best];
  }
  return out;
}

TEST(PartitionedAggregation, MatchesSerialAcrossPartitionCounts) {
  BodyFixture fx(
      "RETURN x AS x, count(*) AS c, sum(y) AS s, collect(y) AS ys, "
      "min(y) AS mn");
  Table input = IntTable(
      {"x", "y"},
      {{5, 1}, {2, 2}, {9, 3}, {2, 4}, {5, 5}, {7, 6}, {9, 7}, {2, 8}});
  EvalContext ctx;
  auto serial = EvaluateProjection(fx.body(), input, ctx);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  // Partition counts beyond the 4 distinct keys leave partitions EMPTY;
  // range splits with empty edges/middles leave per-range states empty.
  // Every combination must reproduce the serial group order (stamps) and
  // contents (merge in range order) byte for byte.
  for (size_t partitions : {size_t{1}, size_t{2}, size_t{3}, size_t{16}}) {
    for (const std::vector<size_t>& splits :
         std::vector<std::vector<size_t>>{
             {8}, {3, 5}, {1, 1, 1, 1, 1, 1, 1, 1}, {0, 8, 0}, {4, 0, 4}}) {
      auto merged = MergePartitioned(fx.body(), input, splits, partitions);
      ASSERT_TRUE(merged.ok())
          << partitions << " partitions: " << merged.status().ToString();
      EXPECT_EQ(serial->ToString(), merged->ToString())
          << partitions << " partitions";
    }
  }
}

TEST(PartitionedAggregation, AllRowsOneGroupLeavesOthersEmpty) {
  BodyFixture fx("RETURN x AS x, count(*) AS c, sum(y) AS s");
  // One group key: every row routes to ONE partition; the other
  // partitions stay empty through accumulate, merge and finish.
  Table input = IntTable({"x", "y"}, {{1, 10}, {1, 20}, {1, 30}, {1, 40}});
  EvalContext ctx;
  auto serial = EvaluateProjection(fx.body(), input, ctx);
  ASSERT_TRUE(serial.ok());
  auto merged = MergePartitioned(fx.body(), input, {2, 2}, 8);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(serial->ToString(), merged->ToString());
  ASSERT_EQ(merged->NumRows(), 1u);
}

TEST(PartitionedAggregation, EquivalentKeysShareAPartition) {
  BodyFixture fx("RETURN x AS x, count(*) AS c");
  // 1 and 1.0 are equivalent grouping keys (one group). Routing by any
  // hash that is not equivalence-consistent would split them across
  // partitions and produce two groups.
  Table input(std::vector<std::string>{"x"});
  ValueList r1, r2;
  r1.push_back(Value::Int(1));
  r2.push_back(Value::Float(1.0));
  input.AddRow(std::move(r1));
  input.AddRow(std::move(r2));
  EvalContext ctx;
  auto serial = EvaluateProjection(fx.body(), input, ctx);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial->NumRows(), 1u);
  for (size_t partitions : {size_t{2}, size_t{7}, size_t{16}}) {
    auto merged = MergePartitioned(fx.body(), input, {1, 1}, partitions);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ(serial->ToString(), merged->ToString())
        << partitions << " partitions";
  }
}

// ---- Engine-level parallel execution ---------------------------------------

GraphPtr TestGraph() {
  static GraphPtr g = workload::MakeRandomGraph(120, 300, 99);
  return g;
}

CypherEngine ParallelEngine(size_t threads) {
  EngineOptions opts;
  opts.num_threads = threads;
  CypherEngine engine(opts);
  engine.set_default_graph(TestGraph());
  return engine;
}

TEST(ParallelEngine, MatchesSerialVolcano) {
  if (!EffectiveNumThreads(4).ok() || *EffectiveNumThreads(4) != 4u) {
    GTEST_SKIP() << "GQLITE_THREADS overrides this test's thread count";
  }
  CypherEngine serial = ParallelEngine(1);
  CypherEngine par = ParallelEngine(4);
  for (const char* q : {
           "MATCH (n) RETURN count(*) AS c",
           "MATCH (a:A)-[:T]->(b) RETURN count(*) AS c, sum(a.v) AS s",
           "MATCH (a)-[:T]->(b) WHERE a.v > b.v RETURN a.v AS x, b.v AS y "
           "ORDER BY x, y",
           "MATCH (a)-[:T]->(b)-[:T]->(c) RETURN b.v AS g, count(*) AS c "
           "ORDER BY g",
       }) {
    auto want = serial.Execute(q);
    auto got = par.Execute(q);
    ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    EXPECT_TRUE(want->table.SameBag(got->table)) << q;
    // ORDER BY results must be byte-identical, not just bag-identical.
    if (std::string(q).find("ORDER BY") != std::string::npos) {
      EXPECT_EQ(want->table.ToString(), got->table.ToString()) << q;
    }
  }
  EXPECT_GE(par.parallel_stats().queries, 4u);
  EXPECT_GT(par.parallel_stats().morsels, 0u);
}

TEST(ParallelEngine, ExplainSurfacesWorkersAndSerialReasons) {
  CypherEngine par = ParallelEngine(4);
  // GQLITE_THREADS (the sanitizer CI legs) overrides the requested 4; the
  // reason strings below only print for a parallel-capable engine.
  size_t effective = par.options().num_threads;
  if (effective <= 1) {
    GTEST_SKIP() << "GQLITE_THREADS forces serial execution";
  }
  auto ex = par.Explain("MATCH (n) RETURN count(*) AS c");
  ASSERT_TRUE(ex.ok());
  EXPECT_NE(ex->find("Parallel: " + std::to_string(effective) + " workers"),
            std::string::npos)
      << *ex;

  // Pipeline breakers are parallel merge points (ISSUE 8), intermediate
  // WITH included: EXPLAIN names the merge-stage shape.
  struct ShapeCase {
    const char* query;
    const char* shape;
  };
  for (const ShapeCase& c : std::vector<ShapeCase>{
           {"MATCH (n) RETURN n.v AS v ORDER BY v", "parallel merge sort"},
           {"MATCH (n) RETURN DISTINCT n.v AS v", "partitioned DISTINCT"},
           {"MATCH (n) RETURN n.v AS g, count(*) AS c",
            "partitioned aggregation merge"},
           {"MATCH (n) RETURN count(*) AS c", "global aggregation fold"},
           {"MATCH (n) RETURN n.v AS v", "concat merge"},
           {"MATCH (n) WITH n.v AS v ORDER BY v RETURN count(*) AS c",
            "parallel merge sort at intermediate WITH"},
           {"MATCH (n) WITH DISTINCT n.v AS v RETURN count(*) AS c",
            "partitioned DISTINCT merge at intermediate WITH"},
       }) {
    auto plan = par.Explain(c.query);
    ASSERT_TRUE(plan.ok()) << c.query << ": " << plan.status().ToString();
    EXPECT_NE(plan->find(c.shape), std::string::npos)
        << c.query << "\n" << *plan;
  }

  // Serial fallbacks name their reason.
  struct Case {
    const char* query;
    const char* reason;
  };
  for (const Case& c : std::vector<Case>{
           {"MATCH (n) RETURN n.v AS v UNION MATCH (m) RETURN m.v AS v",
            "UNION"},
           {"MATCH (n) WHERE rand() < 2 RETURN count(*) AS c", "rand()"},
           {"OPTIONAL MATCH (n:NoSuchLabel) RETURN count(*) AS c",
            "OPTIONAL MATCH"},
           {"RETURN 1 AS one", "no MATCH drives the plan"},
       }) {
    auto plan = par.Explain(c.query);
    ASSERT_TRUE(plan.ok()) << c.query << ": " << plan.status().ToString();
    EXPECT_NE(plan->find("Parallel: serial"), std::string::npos)
        << c.query << "\n" << *plan;
    EXPECT_NE(plan->find(c.reason), std::string::npos)
        << c.query << "\n" << *plan;
    // ... and the fallback must still compute the right answer.
    auto r = par.Execute(c.query);
    EXPECT_TRUE(r.ok()) << c.query << ": " << r.status().ToString();
  }

  // Every executed fallback above was counted under its reason
  // (satellite: parallel-coverage regressions are observable in
  // aggregate, not just per-query via EXPLAIN).
  CypherEngine::ParallelStats ps = par.parallel_stats();
  ASSERT_FALSE(ps.serial_reasons.empty());
  uint64_t fallbacks = 0;
  for (const auto& [reason, count] : ps.serial_reasons) fallbacks += count;
  EXPECT_GE(fallbacks, 4u);
}

TEST(ParallelEngine, SerialFallbacksMatchInterpreter) {
  EngineOptions iopts;
  iopts.mode = ExecutionMode::kInterpreter;
  CypherEngine interp(iopts);
  interp.set_default_graph(TestGraph());
  CypherEngine par = ParallelEngine(3);
  for (const char* q : {
           "MATCH (n:A) RETURN n.v AS v UNION MATCH (m:B) RETURN m.v AS v",
           "MATCH (n) WITH n.v AS v ORDER BY v LIMIT 5 RETURN v",
           "OPTIONAL MATCH (n:NoSuchLabel) RETURN n AS n",
           "MATCH (a) WITH a.v AS v, count(*) AS c RETURN v, c ORDER BY v",
       }) {
    auto want = interp.Execute(q);
    auto got = par.Execute(q);
    ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    EXPECT_TRUE(want->table.SameBag(got->table))
        << q << "\ninterpreter:\n" << want->table.ToString()
        << "parallel engine:\n" << got->table.ToString();
  }
}

TEST(ParallelEngine, ProfileReportsWorkersAndMorsels) {
  CypherEngine par = ParallelEngine(2);
  if (par.options().num_threads <= 1) {
    GTEST_SKIP() << "GQLITE_THREADS forces serial execution";
  }
  auto prof = par.Profile("MATCH (a)-[:T]->(b) RETURN count(*) AS c");
  ASSERT_TRUE(prof.ok()) << prof.status().ToString();
  EXPECT_NE(prof->find("workers"), std::string::npos) << *prof;
  EXPECT_NE(prof->find("morsels dispatched"), std::string::npos) << *prof;
}

TEST(ParallelEngine, ProfileCountsOnlyTheScansPatternSurvivors) {
  // The scan tests the anchor's map on the record: its PROFILE row count
  // is the survivors (60 of 600), summed over every worker's morsels.
  auto g = std::make_shared<PropertyGraph>();
  for (int i = 0; i < 600; ++i) {
    g->CreateNode({"P"}, {{"k", Value::Int(i % 10)}});
  }
  for (size_t threads : {1u, 4u}) {
    EngineOptions opts;
    opts.num_threads = threads;
    CypherEngine engine(opts);
    engine.set_default_graph(g);
    for (const char* q : {"MATCH (n:P {k: 3}) RETURN n.k AS k",
                          "MATCH (n:P {k: 3}) RETURN count(*) AS c"}) {
      auto prof = engine.Profile(q);
      ASSERT_TRUE(prof.ok()) << prof.status().ToString();
      size_t at = prof->find("NodeByLabelScan(n:P) {k}");
      ASSERT_NE(at, std::string::npos) << *prof;
      std::string line = prof->substr(at, prof->find('\n', at) - at);
      EXPECT_NE(line.find("(rows: 60,"), std::string::npos)
          << threads << " threads: " << line;
      EXPECT_EQ(prof->find("Filter"), std::string::npos) << *prof;
    }
  }
}

TEST(ParallelEngine, CachedParallelPlansReplanAfterGraphMutation) {
  EngineOptions opts;
  opts.num_threads = 2;
  CypherEngine engine(opts);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(engine.Execute("CREATE (:P {v: " + std::to_string(i) + "})")
                    .ok());
  }
  const char* q = "MATCH (n:P) RETURN count(*) AS c";
  auto first = engine.Execute(q);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->table.rows()[0][0].AsInt(), 40);
  // Structural change bumps stats_version: the cached plan (and its
  // baked-in worker instances with their scan-domain assumptions) must
  // not be reused.
  ASSERT_TRUE(engine.Execute("CREATE (:P {v: 100}), (:P {v: 101})").ok());
  auto second = engine.Execute(q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->table.rows()[0][0].AsInt(), 42);
}

TEST(ParallelEngine, PlanCacheKeySeparatesThreadCounts) {
  if (!EffectiveNumThreads(2).ok() || *EffectiveNumThreads(2) != 2u) {
    GTEST_SKIP() << "GQLITE_THREADS overrides this test's thread count";
  }
  CypherEngine engine = ParallelEngine(2);
  const char* q = "MATCH (n) RETURN count(*) AS c";
  auto first = engine.Execute(q);
  ASSERT_TRUE(first.ok());
  auto second = engine.Execute(q);
  ASSERT_TRUE(second.ok());
  EXPECT_GE(engine.plan_cache_stats().hits, 1u);
  EXPECT_TRUE(first->table.SameBag(second->table));
  // Re-keying through set_options: a different worker count must not
  // reuse the 2-thread plan (its baked-in instances are wrong).
  EngineOptions opts = engine.options();
  opts.num_threads = 1;
  engine.set_options(opts);
  auto serial = engine.Execute(q);
  ASSERT_TRUE(serial.ok());
  EXPECT_TRUE(first->table.SameBag(serial->table));
}

// ---- Locking edge cases -----------------------------------------------------

TEST(WorkerPool, ShutdownIsIdempotent) {
  WorkerPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  pool.Shutdown();
  EXPECT_EQ(pool.size(), 0u);
  pool.Shutdown();  // second call is a no-op
  EXPECT_EQ(pool.size(), 0u);
  // After shutdown, jobs degenerate to the calling thread only.
  int ran = 0;
  ASSERT_TRUE(pool
                  .RunOnAll([&](size_t w) {
                    EXPECT_EQ(w, 0u);
                    ++ran;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(ran, 1);
  // The destructor after an explicit Shutdown must also be a no-op.
}

TEST(ParallelEngine, ErrorDuringDrainIsDeterministicAndNonPoisoning) {
  // Two failing rows of DIFFERENT error kinds, far apart in scan order:
  // whichever worker stumbles first in wall-clock time, the merge stage
  // must always report the error of the FIRST range in scan order — the
  // division by zero at node 100, never the type error at node 500.
  auto g = std::make_shared<PropertyGraph>();
  for (int i = 0; i < 600; ++i) {
    Value v = Value::Int(1);
    if (i == 100) v = Value::Int(0);
    if (i == 500) v = Value::String("not a number");
    g->CreateNode({"P"}, {{"v", v}});
  }
  EngineOptions opts;
  opts.num_threads = 4;
  CypherEngine engine(opts);
  engine.set_default_graph(g);
  for (int run = 0; run < 5; ++run) {
    auto r = engine.Execute("MATCH (n:P) RETURN 1 / n.v AS x");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("division by zero"),
              std::string::npos)
        << "run " << run << ": " << r.status().ToString();
  }
  // Survivors drained their morsels and the pool is intact: the engine
  // keeps answering queries after the failure.
  auto ok = engine.Execute("MATCH (n:P) WHERE n.v = 1 RETURN count(*) AS c");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->table.rows()[0][0].AsInt(), 598);
}

TEST(ParallelEngine, MergeOnlySumOverflowStillRaises) {
  // Two near-max values 500 scan positions apart: each range's partial
  // sum is fine; only combining the partials overflows. The chunked
  // parallel aggregation must raise exactly like the serial engine does
  // when it reaches the second value — not wrap.
  auto g = std::make_shared<PropertyGraph>();
  constexpr int64_t kBig = std::numeric_limits<int64_t>::max() - 1;
  for (int i = 0; i < 600; ++i) {
    int64_t v = (i == 50 || i == 550) ? kBig : 0;
    g->CreateNode({"P"}, {{"v", Value::Int(v)}});
  }
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EngineOptions opts;
    opts.num_threads = threads;
    CypherEngine engine(opts);
    engine.set_default_graph(g);
    auto r = engine.Execute("MATCH (n:P) RETURN sum(n.v) AS s");
    ASSERT_FALSE(r.ok()) << threads << " workers";
    EXPECT_NE(r.status().ToString().find("overflow"), std::string::npos)
        << threads << " workers: " << r.status().ToString();
  }
}

TEST(ParallelEngine, IntermediateWithBreakersAreByteIdentical) {
  if (!EffectiveNumThreads(4).ok() || *EffectiveNumThreads(4) != 4u) {
    GTEST_SKIP() << "GQLITE_THREADS overrides this test's thread count";
  }
  // The merge point sits BELOW the root: the WITH breaker runs in the
  // merge stage, the clauses above it (aggregation, final RETURN) run
  // serially on the preloaded result. Output must be byte-identical to
  // the serial engine at every worker count.
  CypherEngine serial = ParallelEngine(1);
  CypherEngine par2 = ParallelEngine(2);
  CypherEngine par4 = ParallelEngine(4);
  for (const char* q : {
           "MATCH (n) WITH n.v AS v ORDER BY v LIMIT 7 "
           "RETURN count(*) AS c, sum(v) AS s",
           "MATCH (n) WITH DISTINCT n.v AS v RETURN count(*) AS c",
           "MATCH (n) WITH n.v AS v ORDER BY v DESC SKIP 3 LIMIT 5 "
           "RETURN collect(v) AS vs",
           "MATCH (a)-[:T]->(b) WITH DISTINCT a.v AS x, b.v AS y "
           "RETURN x, y ORDER BY x, y",
       }) {
    auto want = serial.Execute(q);
    ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    for (CypherEngine* e : {&par2, &par4}) {
      auto got = e->Execute(q);
      ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
      EXPECT_EQ(want->table.ToString(), got->table.ToString())
          << e->options().num_threads << " workers: " << q;
    }
  }
  EXPECT_GE(par4.parallel_stats().sort_merges +
                par4.parallel_stats().distinct_merges,
            4u)
      << "the breaker queries above must take the parallel merge paths";
}

TEST(ParallelEngine, BoundedTopKIsByteIdenticalAcrossWorkerCounts) {
  // Three sort keys over 600 nodes: every tie group spans many scan
  // ranges, and ties must come out in scan order at any worker count —
  // through the per-range partial sorts, the run merges, and the
  // DISTINCT chunk sorts.
  auto g = std::make_shared<PropertyGraph>();
  for (int i = 0; i < 600; ++i) {
    g->CreateNode({"P"}, {{"i", Value::Int(i)}, {"k", Value::Int(i % 3)},
                          {"d", Value::Int(i % 40)}});
  }
  EngineOptions iopts;
  iopts.mode = ExecutionMode::kInterpreter;
  CypherEngine oracle(iopts);
  oracle.set_default_graph(g);
  std::vector<CypherEngine> engines;
  engines.reserve(3);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    EngineOptions opts;
    opts.num_threads = threads;
    engines.emplace_back(opts);
    engines.back().set_default_graph(g);
  }
  const std::string sorted = "MATCH (n:P) RETURN n.k AS k, n.i AS i ORDER BY k";
  const std::string distinct =
      "MATCH (n:P) RETURN DISTINCT n.d AS d, n.k AS k ORDER BY k";
  struct Case {
    std::string query;
    int64_t skip;
    int64_t limit;
  };
  const Case cases[] = {
      {sorted, 0, 10},  {sorted, 5, 7},       {sorted, 0, 0},
      {sorted, 0, 5000}, {sorted, 590, 50},   {sorted, 199, 3},
      {distinct, 0, 10}, {distinct, 13, 20},  {distinct, 0, 0},
      {distinct, 0, 1000}, {sorted, 3, std::numeric_limits<int64_t>::max()},
  };
  for (const Case& c : cases) {
    const std::string q = c.query + " SKIP $s LIMIT $l";
    ValueMap params{{"s", Value::Int(c.skip)}, {"l", Value::Int(c.limit)}};
    auto want = oracle.Execute(q, params);
    ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    for (CypherEngine& e : engines) {
      auto got = e.Execute(q, params);
      ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
      EXPECT_EQ(want->table.ToString(), got->table.ToString())
          << e.options().num_threads << " workers: " << q << " SKIP "
          << c.skip << " LIMIT " << c.limit;
    }
  }
  // The first ten under `ORDER BY k` are the k = 0 rows in scan order.
  auto first = engines.back().Execute(sorted + " LIMIT 10");
  ASSERT_TRUE(first.ok());
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(first->table.rows()[r][1].AsInt(), static_cast<int64_t>(3 * r));
  }
  // An invalid LIMIT surfaces after the ORDER BY keys: a key error wins.
  ValueMap bad{{"l", Value::Int(-1)}};
  for (CypherEngine& e : engines) {
    auto key_err = e.Execute(
        "MATCH (n:P) RETURN n.i AS i ORDER BY 1 / (n.i - 300) LIMIT $l", bad);
    ASSERT_FALSE(key_err.ok());
    EXPECT_NE(key_err.status().ToString().find("division by zero"),
              std::string::npos)
        << key_err.status().ToString();
    auto limit_err =
        e.Execute("MATCH (n:P) RETURN n.i AS i ORDER BY i LIMIT $l", bad);
    ASSERT_FALSE(limit_err.ok());
    EXPECT_NE(limit_err.status().ToString().find(
                  "LIMIT must be a non-negative integer"),
              std::string::npos)
        << limit_err.status().ToString();
  }
}

TEST(ParallelEngine, StatsReadableWhileQueriesExecute) {
  // A monitoring thread polls every stats surface while the main thread
  // executes parallel queries. Execution accumulates into locals and
  // folds under stats_mu_ once per query, so this is TSan-clean (the CI
  // TSan leg runs this suite) and the counters never go backwards.
  CypherEngine engine = ParallelEngine(4);
  AtomicCounter stop;
  uint64_t last_queries = 0;
  bool monotonic = true;
  std::thread reader([&] {
    while (stop.Load() == 0) {
      BatchStats bs = engine.exec_stats();
      uint64_t q = engine.exec_queries();
      CypherEngine::ParallelStats ps = engine.parallel_stats();
      PlanCacheStats cs = engine.plan_cache_stats();
      if (q < last_queries || bs.rows < 0 || ps.morsels > ps.queries * 1000 ||
          cs.hits + cs.misses > 1u << 30) {
        monotonic = false;
      }
      last_queries = q;
    }
  });
  constexpr int kQueries = 30;
  for (int i = 0; i < kQueries; ++i) {
    auto r = engine.Execute("MATCH (a)-[:T]->(b) RETURN count(*) AS c");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  stop.Store(1);
  reader.join();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(engine.exec_queries(), static_cast<uint64_t>(kQueries));
}

}  // namespace
}  // namespace gqlite
