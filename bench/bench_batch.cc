// Batched vs tuple-at-a-time execution on fan-out-heavy graphs: the same
// query runs at the default morsel size (1024) and at batch size 1 (the
// degenerate per-tuple mode), so the gap IS the dispatch/bookkeeping
// overhead the vectorized runtime amortizes. This suite is part of the CI
// regression gate (bench/tools/compare.py against bench/baselines/): a
// regression in either mode, or a collapse of the batched advantage,
// shows up as a >15% normalized slowdown. BM_FilteredLabelScan tracks the
// per-row cost of bound expression evaluation in ns per scanned node at
// 1k, 10k and 50k nodes; BM_FilteredExpand tracks the record-layout cost
// of an Expand that reads a relationship property, in ns per expanded
// relationship at 1k, 10k and 50k people.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.h"

namespace gqlite {
namespace {

/// Shared fan-out-heavy graph: 256 people averaging 8 FRIEND edges each
/// (so a two-hop pattern explodes to ~64 rows per source), plus cities.
GraphPtr FanoutGraph() {
  static GraphPtr g = [] {
    workload::SocialConfig cfg;
    cfg.num_people = 256;
    cfg.avg_friends = 8;
    cfg.num_cities = 8;
    return workload::MakeSocialNetwork(cfg);
  }();
  return g;
}

void RunQuery(benchmark::State& state, const char* query,
              size_t batch_size) {
  EngineOptions opts;
  opts.batch_size = batch_size;
  Database db = bench::MakeDatabase(FanoutGraph(), opts);
  int64_t rows = 0;
  for (auto _ : state) {
    Table t = bench::MustRun(db, query);
    rows = t.rows()[0][0].AsInt();
    benchmark::DoNotOptimize(t);
  }
  state.counters["result"] = static_cast<double>(rows);
  // Effective size: --no-batch / GQLITE_BATCH_SIZE override the request.
  size_t effective = db.engine().options().batch_size;
  state.SetLabel(effective == 1
                     ? "tuple-at-a-time"
                     : "morsel " + std::to_string(effective));
}

constexpr const char* kTwoHop =
    "MATCH (a:Person)-[:FRIEND]->(b)-[:FRIEND]->(c) RETURN count(*) AS c";

void BM_TwoHopBatched(benchmark::State& s) { RunQuery(s, kTwoHop, 1024); }
void BM_TwoHopPerTuple(benchmark::State& s) { RunQuery(s, kTwoHop, 1); }
BENCHMARK(BM_TwoHopBatched);
BENCHMARK(BM_TwoHopPerTuple);

constexpr const char* kFilterExpand =
    "MATCH (a:Person)-[:FRIEND]-(b) WHERE b.name < 'P2' "
    "RETURN count(*) AS c";

void BM_FilterExpandBatched(benchmark::State& s) {
  RunQuery(s, kFilterExpand, 1024);
}
void BM_FilterExpandPerTuple(benchmark::State& s) {
  RunQuery(s, kFilterExpand, 1);
}
BENCHMARK(BM_FilterExpandBatched);
BENCHMARK(BM_FilterExpandPerTuple);

constexpr const char* kVarLength =
    "MATCH (a:Person)-[:FRIEND*1..2]-(b) RETURN count(*) AS c";

void BM_VarLengthBatched(benchmark::State& s) { RunQuery(s, kVarLength, 1024); }
void BM_VarLengthPerTuple(benchmark::State& s) { RunQuery(s, kVarLength, 1); }
BENCHMARK(BM_VarLengthBatched);
BENCHMARK(BM_VarLengthPerTuple);

constexpr const char* kUnwind =
    "UNWIND range(1, 4096) AS x RETURN count(*) AS c";

void BM_UnwindBatched(benchmark::State& s) { RunQuery(s, kUnwind, 1024); }
void BM_UnwindPerTuple(benchmark::State& s) { RunQuery(s, kUnwind, 1); }
BENCHMARK(BM_UnwindBatched);
BENCHMARK(BM_UnwindPerTuple);

/// A label scan whose every row passes through one bound filter — the
/// per-row cost of reading a column slot, a property by interned key and
/// a parameter. `n` :N nodes with `idx` 0..n-1; the prepared statement
/// looks up the middle one, so the scan visits all n nodes.
/// `ns_per_node` is wall time per scanned node.
void BM_FilteredLabelScan(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto g = std::make_shared<PropertyGraph>();
  for (int64_t i = 0; i < n; ++i) {
    g->CreateNode({"N"}, {{"idx", Value::Int(i)}});
  }
  Database db = bench::MakeDatabase(g);
  Result<PreparedQuery> stmt =
      db.Prepare("MATCH (n:N) WHERE n.idx = $i RETURN n.idx");
  if (!stmt.ok()) {
    state.SkipWithError(stmt.status().ToString().c_str());
    return;
  }
  const ValueMap params{{"i", Value::Int(n / 2)}};
  auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    Result<QueryResult> r = db.Execute(*stmt, params);
    if (!r.ok() || r->table.NumRows() != 1) {
      state.SkipWithError("filtered label scan lost its row");
      return;
    }
    benchmark::DoNotOptimize(r->table);
  }
  std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["ns_per_node"] =
      elapsed.count() /
      (static_cast<double>(state.iterations()) * static_cast<double>(n));
}
BENCHMARK(BM_FilteredLabelScan)->Arg(1000)->Arg(10000)->Arg(50000);

/// The analytics workload's filtered Expand at 1 worker: a Person label
/// scan, a walk of each person's outgoing adjacency with a FRIEND type
/// filter and one `f.since` read per FRIEND relationship. `n` people with
/// 8 friends on average (~4n FRIEND relationships, as in the analytics
/// graph). `ns_per_rel` is wall time per FRIEND relationship expanded.
void BM_FilteredExpand(benchmark::State& state) {
  workload::SocialConfig cfg;
  cfg.num_people = static_cast<size_t>(state.range(0));
  cfg.num_cities = 50;
  GraphPtr g = workload::MakeSocialNetwork(cfg);
  const double rels =
      static_cast<double>(g->TypeCounts().at(g->LookupType("FRIEND")));
  EngineOptions opts;
  opts.num_threads = 1;
  Database db = bench::MakeDatabase(g, opts);
  const char* query =
      "MATCH (p:Person)-[f:FRIEND]->(q) WHERE f.since >= 1991 "
      "RETURN count(*) AS c";
  int64_t rows = 0;
  auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    Table t = bench::MustRun(db, query);
    rows = t.rows()[0][0].AsInt();
    benchmark::DoNotOptimize(t);
  }
  std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["result"] = static_cast<double>(rows);
  state.counters["ns_per_rel"] =
      elapsed.count() / (static_cast<double>(state.iterations()) * rels);
}
BENCHMARK(BM_FilteredExpand)->Arg(1000)->Arg(10000)->Arg(50000);

}  // namespace
}  // namespace gqlite

GQLITE_BENCH_MAIN()
