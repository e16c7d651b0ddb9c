// Per-layer metrics of a traced run: layer probes over a workload's
// statements, engine/process counter deltas across the traced phase, and
// span statistics of the calls the clients made.
#include <sys/stat.h>


#include "common.h"
#include "src/frontend/analyzer.h"
#include "src/frontend/lexer.h"
#include "src/frontend/parser.h"

namespace perfbench {
namespace {

constexpr int kProbeReps = 3;
constexpr int64_t kProbeOpBase = 1000000000;

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Median duration of `call()` over kProbeReps runs, as a span each.
template <typename F>
double TimeCall(Tracer* tracer, const char* name, int64_t op, int32_t parent,
                F&& call) {
  std::vector<double> us;
  for (int i = 0; i < kProbeReps; ++i) {
    SpanScope span(tracer, name, op, parent);
    int64_t t0 = NowNs();
    call();
    us.push_back(Us(NowNs() - t0));
  }
  return Median(us);
}

double MedianOr0(const std::vector<double>& v) {
  return v.empty() ? 0 : Median(v);
}

/// Median duration of the spans called `name`, 0 when there are none.
double SpanMedianUs(const std::vector<const Tracer*>& tracers,
                    const std::string& name) {
  std::vector<double> us;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) {
      if (name == s.name) us.push_back(Us(s.end_ns - s.start_ns));
    }
  }
  return MedianOr0(us);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

ProbeMetrics ProbeLayers(Database& db, const std::vector<ProbeStmt>& stmts,
                         Tracer* tracer) {
  std::map<std::string, std::vector<double>> samples;
  for (size_t i = 0; i < stmts.size(); ++i) {
    const ProbeStmt& st = stmts[i];
    int64_t op = kProbeOpBase + static_cast<int64_t>(i);
    SpanScope root(tracer, "probe", op, -1);
    samples["frontend.tokenize_us"].push_back(
        TimeCall(tracer, "frontend.tokenize", op, root.id(), [&] {
          if (!gqlite::Tokenize(st.text).ok()) Die("tokenize: " + st.text);
        }));
    samples["frontend.parse_us"].push_back(
        TimeCall(tracer, "frontend.parse", op, root.id(), [&] {
          if (!gqlite::ParseQuery(st.text).ok()) Die("parse: " + st.text);
        }));
    auto ast = gqlite::ParseQuery(st.text);
    if (!ast.ok()) Die("parse: " + st.text);
    samples["frontend.analyze_us"].push_back(
        TimeCall(tracer, "frontend.analyze", op, root.id(), [&] {
          if (!gqlite::Analyze(*ast).ok()) Die("analyze: " + st.text);
        }));
    double prepare_us = TimeCall(tracer, "frontend.prepare", op, root.id(), [&] {
      if (!db.Prepare(st.text).ok()) Die("prepare: " + st.text);
    });
    samples["frontend.prepare_us"].push_back(prepare_us);
    if (!st.read) continue;
    double explain_us = TimeCall(tracer, "plan.explain", op, root.id(), [&] {
      if (!db.Explain(st.text, st.params).ok()) Die("explain: " + st.text);
    });
    samples["plan.plan_us"].push_back(explain_us - prepare_us);
    auto prepared = db.Prepare(st.text);
    if (!prepared.ok()) Die("prepare: " + st.text);
    MustRun(db.Execute(*prepared, st.params), st.text);  // warm the cache
    double exec_us = TimeCall(tracer, "runtime.execute", op, root.id(), [&] {
      MustRun(db.Execute(*prepared, st.params), st.text);
    });
    samples["runtime.execute_us." + st.cls].push_back(exec_us);
    if (st.scan_nodes > 0) {
      samples["runtime.ns_per_scanned_node"].push_back(
          exec_us * 1e3 / static_cast<double>(st.scan_nodes));
    }
  }
  ProbeMetrics out;
  for (auto& [name, v] : samples) out[name] = Median(v);
  return out;
}

Counters ReadCounters(Database& db, const std::string& wal_path) {
  Counters c;
  c.plan = db.engine().plan_cache_stats();
  c.batch = db.engine().exec_stats();
  c.exec_queries = db.engine().exec_queries();
  c.parallel = db.engine().parallel_stats();
  c.io = ReadProcIo();
  struct stat sb {};
  if (!wal_path.empty() && ::stat(wal_path.c_str(), &sb) == 0) {
    c.wal_bytes = sb.st_size;
  }
  return c;
}

void AddDelta(const Counters& after, const Counters& before, Counters* sum) {
  sum->plan.hits += after.plan.hits - before.plan.hits;
  sum->plan.misses += after.plan.misses - before.plan.misses;
  sum->plan.evictions += after.plan.evictions - before.plan.evictions;
  sum->plan.invalidations += after.plan.invalidations - before.plan.invalidations;
  sum->batch.rows += after.batch.rows - before.batch.rows;
  sum->batch.batches += after.batch.batches - before.batch.batches;
  sum->exec_queries += after.exec_queries - before.exec_queries;
  sum->parallel.queries += after.parallel.queries - before.parallel.queries;
  sum->parallel.morsels += after.parallel.morsels - before.parallel.morsels;
  for (const auto& [reason, n] : after.parallel.serial_reasons) {
    auto it = before.parallel.serial_reasons.find(reason);
    uint64_t prior = it == before.parallel.serial_reasons.end() ? 0 : it->second;
    if (n > prior) sum->parallel.serial_reasons[reason] += n - prior;
  }
  sum->io.wchar += after.io.wchar - before.io.wchar;
  sum->io.syscw += after.io.syscw - before.io.syscw;
  sum->wal_bytes += after.wal_bytes - before.wal_bytes;
}

void AddLayerMetrics(const LayerInputs& in, Report* report) {
  auto probe = [&](const std::string& name) {
    auto it = in.probes.find(name);
    return it == in.probes.end() ? 0.0 : it->second;
  };
  for (const char* m : {"frontend.prepare_us", "frontend.tokenize_us",
                        "frontend.parse_us", "frontend.analyze_us",
                        "plan.plan_us"}) {
    report->Set(m, probe(m), "us");
  }

  const Counters& d = in.traced;
  double hits = static_cast<double>(d.plan.hits);
  double misses = static_cast<double>(d.plan.misses);
  double writes = static_cast<double>(in.writes);
  double ops = static_cast<double>(in.ops);
  report->Set("plan.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  report->Set("plan.invalidations_per_write",
              Ratio(static_cast<double>(d.plan.invalidations), writes),
              "count");
  report->Set("plan.evictions_per_kop",
              Ratio(1e3 * static_cast<double>(d.plan.evictions), ops),
              "count");

  for (const char* cls : {"lookup", "traverse", "analytic", "expr"}) {
    std::string name = std::string("runtime.execute_us.") + cls;
    report->Set(name, probe(name), "us");
  }
  report->Set("runtime.ns_per_scanned_node",
              probe("runtime.ns_per_scanned_node"), "ns");
  report->Set("runtime.rows_per_batch",
              Ratio(static_cast<double>(d.batch.rows),
                    static_cast<double>(d.batch.batches)),
              "rows");

  double volcano = static_cast<double>(d.exec_queries);
  double parallel = static_cast<double>(d.parallel.queries);
  double fallbacks = 0;
  for (const auto& [reason, n] : d.parallel.serial_reasons) {
    fallbacks += static_cast<double>(n);
    report->Note("serial fallback x" + std::to_string(n) + ": " + reason);
  }
  report->Set("exec.parallel_share", Ratio(parallel, volcano), "ratio");
  report->Set("exec.morsels_per_query",
              Ratio(static_cast<double>(d.parallel.morsels), parallel),
              "count");
  report->Set("exec.serial_fallbacks", fallbacks, "count");
  report->Set("exec.speedup", in.exec_speedup, "ratio");

  report->Set("session.begin_read_us",
              SpanMedianUs(in.op_tracers, "session.begin_read"), "us");
  report->Set("session.begin_write_us",
              SpanMedianUs(in.op_tracers, "session.begin_write"), "us");
  double wait_total = 0;
  for (double w : in.writer_wait_us) wait_total += w;
  report->Set("session.writer_wait_us",
              Ratio(wait_total, static_cast<double>(in.writer_wait_us.size())),
              "us");
  report->Set("session.conflicts_per_write",
              Ratio(static_cast<double>(in.conflicts), writes), "count");
  report->Set("session.statement_us",
              SpanMedianUs(in.op_tracers, "session.statement"), "us");
  report->Set("session.commit_us",
              SpanMedianUs(in.op_tracers, "session.commit"), "us");

  report->Set("storage.wal_bytes_per_commit",
              Ratio(static_cast<double>(d.wal_bytes), writes),
              "B");
  report->Set("storage.bytes_written_per_commit",
              Ratio(static_cast<double>(d.io.wchar), writes),
              "B");
  report->Set("storage.write_calls_per_commit",
              Ratio(static_cast<double>(d.io.syscw), writes),
              "count");
  report->Set("storage.checkpoint_ms", in.checkpoint_ms, "ms");
  report->Set("storage.checkpoint_bytes", in.checkpoint_bytes, "B");
  report->Set("storage.recovery_ms", in.recovery_ms, "ms");
  report->Set("storage.device_fdatasync_us", in.device_fdatasync_us, "us");
}

}  // namespace perfbench
