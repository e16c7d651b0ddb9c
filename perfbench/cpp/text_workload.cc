// The single-client closed loop shared by the analytics and short_text
// workloads, with its oracle check and traced-run phases.
#include <cstdio>

#include "common.h"

namespace perfbench {
namespace {

/// What a closed loop of text statements did. Every execution's result
/// fingerprint is kept per statement key for the oracle check.
struct TextLoop {
  LatencyLog wall_us;
  /// Process CPU time per op: the client and the engine's workers.
  LatencyLog cpu_us;
  int64_t ops = 0;
  int64_t errors = 0;
  Elapsed time;
  /// key -> fingerprint -> executions that produced it.
  std::map<uint32_t, std::map<uint64_t, int64_t>> results;
  /// One op per key, to re-run on the oracle.
  std::map<uint32_t, TextOp> ops_by_key;
};

/// Runs `next()` statements for `seconds` (or, when `max_ops` >= 0, for
/// exactly that many), adding to `loop`. With a tracer, every op gets a
/// root span and one span per call into the engine.
void RunTextLoop(Database& db, double seconds, Tracer* tracer,
                 const std::function<TextOp()>& next, TextLoop* loop,
                 int64_t max_ops = -1) {
  Stopwatch watch;
  int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int64_t now = NowNs();
  for (int64_t n = 0; max_ops >= 0 ? n < max_ops : now < deadline; ++n) {
    TextOp op = next();
    int64_t id = loop->ops++;
    int64_t t0 = NowNs();
    int64_t cpu0 = ProcessCpuNs();
    Result<QueryResult> result = QueryResult{};
    {
      SpanScope root(tracer, "op", id, -1);
      Result<gqlite::PreparedQuery> prepared = [&] {
        SpanScope span(tracer, "frontend.prepare", id, root.id());
        return db.Prepare(*op.text);
      }();
      if (prepared.ok()) {
        SpanScope span(tracer, "runtime.execute", id, root.id());
        result = db.Execute(*prepared);
      } else {
        result = prepared.status();
      }
    }
    int64_t cpu1 = ProcessCpuNs();
    now = NowNs();
    loop->wall_us.Add(op.cls, static_cast<double>(now - t0) / 1e3);
    loop->cpu_us.Add(op.cls, static_cast<double>(cpu1 - cpu0) / 1e3);
    if (!result.ok()) {
      ++loop->errors;
      std::fprintf(stderr, "perfbench: %s: %s\n", op.text->c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    ++loop->results[op.key][Fingerprint(result->table, op.ordered)];
    loop->ops_by_key.emplace(op.key, op);
  }
  loop->time.Add(watch.Seconds());
}

/// Executions in `loops` whose result differs from the oracle's answer
/// for their statement; an oracle error counts every execution of that
/// statement. The oracle answers each distinct statement once.
int64_t CountWrong(const std::vector<const TextLoop*>& loops,
                   const TextWorkload& w) {
  std::map<uint32_t, const TextOp*> ops;
  for (const TextLoop* loop : loops) {
    for (const auto& [key, op] : loop->ops_by_key) ops.emplace(key, &op);
  }
  int64_t wrong = 0;
  for (const auto& [key, op] : ops) {
    Result<uint64_t> expect = w.oracle_fingerprint(*op);
    for (const TextLoop* loop : loops) {
      auto it = loop->results.find(key);
      if (it == loop->results.end()) continue;
      for (const auto& [fp, n] : it->second) {
        if (expect.ok() && fp == *expect) continue;
        wrong += n;
        std::fprintf(stderr, "perfbench: wrong answer x%lld: %s\n",
                     static_cast<long long>(n), op->text->c_str());
      }
    }
  }
  return wrong;
}

}  // namespace

Report RunTextWorkload(const Options& opt, TextWorkload& w) {
  Report report;
  std::vector<Elapsed> setups;
  TextLoop warm;
  TextLoop measured;
  Tracer tracer;
  TextLoop traced;
  LayerInputs in;
  for (int i = 0; i < kSlices; ++i) {
    for (int k = 0; k < w.setups_per_slice; ++k) setups.push_back(w.setup());
    RunTextLoop(*w.db, kWarmupSeconds, nullptr, w.next, &warm);
    if (!opt.trace) {
      RunTextLoop(*w.db, opt.seconds / kSlices, nullptr, w.next, &measured);
      continue;
    }
    std::vector<TextOp> sent;
    RunTextLoop(*w.db, opt.seconds / (2 * kSlices), nullptr, [&] {
      sent.push_back(w.next());
      return sent.back();
    }, &measured);
    size_t k = 0;
    Counters before = ReadCounters(*w.db, "");
    RunTextLoop(*w.db, 0, &tracer, [&] { return sent[k++]; }, &traced,
                static_cast<int64_t>(sent.size()));
    AddDelta(ReadCounters(*w.db, ""), before, &in.traced);
  }
  // Every slice's set-up is built from the same seed, so one oracle
  // answer checks a statement's executions on all of them.
  report.attempted = warm.ops + measured.ops + traced.ops;
  report.failed = warm.errors + measured.errors + traced.errors +
                  CountWrong({&warm, &measured, &traced}, w);
  if (!opt.trace) {
    AddEndToEnd(measured.wall_us, measured.cpu_us, measured.time, setups,
                &report);
    return report;
  }

  Tracer probe_tracer;
  in.ops = traced.ops;
  in.op_tracers = {&tracer};
  w.probe(&in, &probe_tracer);
  AddLayerMetrics(in, &report);
  AddTraceMetrics(static_cast<double>(measured.ops) / measured.time.cpu,
                  static_cast<double>(traced.ops) / traced.time.cpu, traced.ops,
                  in.op_tracers, &report);
  std::string spans = opt.work_dir + "/spans-" + opt.workload + ".csv";
  if (!WriteSpans(spans, {&tracer, &probe_tracer})) Die("cannot write " + spans);
  report.Note("spans written to " + spans);
  return report;
}

}  // namespace perfbench
