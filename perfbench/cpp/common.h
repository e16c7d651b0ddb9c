// Shared pieces of the end-to-end benchmark: the command line,
// latency logs, result fingerprints, the in-memory span tracer and the
// metric report every workload fills in.
#ifndef PERFBENCH_CPP_COMMON_H_
#define PERFBENCH_CPP_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/core/database.h"

namespace perfbench {

using gqlite::Database;
using gqlite::QueryResult;
using gqlite::Result;
using gqlite::Table;
using gqlite::Value;
using gqlite::ValueMap;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time used so far by the whole process (all its threads) and by
/// the calling thread. CPU time leaves out the time the hypervisor gave
/// this guest's vCPUs to other guests (steal) and the time a thread
/// waited to run, so on a shared host it measures the program rather
/// than its neighbours. It also leaves out time spent blocked, e.g. in
/// fdatasync or between attempts to take the writer slot.
int64_t ProcessCpuNs();
int64_t ThreadCpuNs();

/// Wall-clock and process CPU time of one interval, in seconds.
struct Elapsed {
  double wall = 0;
  double cpu = 0;

  void Add(const Elapsed& o) {
    wall += o.wall;
    cpu += o.cpu;
  }
};

/// Times the interval from its construction, in wall-clock and process
/// CPU seconds.
class Stopwatch {
 public:
  Stopwatch() : wall0_(NowNs()), cpu0_(ProcessCpuNs()) {}
  Elapsed Seconds() const {
    return {static_cast<double>(NowNs() - wall0_) / 1e9,
            static_cast<double>(ProcessCpuNs() - cpu0_) / 1e9};
  }

 private:
  int64_t wall0_;
  int64_t cpu0_;
};

using Rng = std::mt19937_64;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Working directory for the durable database and the span dump.
  std::string work_dir;
};

/// Latency samples in microseconds, overall and by op class (lookup,
/// traverse, analytic, insert, update, expr). Each sample set is a
/// uniform reservoir of at most kCapacity values, so the benchmark's own
/// memory stays flat however many ops a run completes and peak_rss_mb
/// does not grow with throughput; below kCapacity ops it is exact.
class LatencyLog {
 public:
  static constexpr size_t kCapacity = size_t{1} << 17;

  struct Reservoir {
    std::vector<double> samples;
    int64_t seen = 0;
  };

  void Add(const std::string& cls, double us) {
    Keep(&all_, us);
    Keep(&by_class_[cls], us);
  }
  const Reservoir& all() const { return all_; }
  const Reservoir& Of(const std::string& cls) const;
  const std::map<std::string, Reservoir>& by_class() const {
    return by_class_;
  }

 private:
  void Keep(Reservoir* r, double us);

  Reservoir all_;
  std::map<std::string, Reservoir> by_class_;
  Rng rng_{0x5EED};
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Order-sensitive (`ordered`) or bag hash of a result table's fields and
/// rows: two tables get equal fingerprints when they hold the same rows
/// under value equivalence (in the same order, when ordered).
uint64_t Fingerprint(const Table& t, bool ordered);

/// One traced call: a span's parent is the span that caused it (-1 for
/// an op's root span); every span of one op carries the op's id.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  int64_t op;
};

/// Keeps spans in memory; one tracer per client thread, so recording
/// takes no lock. A null Tracer* means tracing is off.
class Tracer {
 public:
  int32_t Open(const char* name, int64_t op, int32_t parent) {
    spans_.push_back(Span{name, NowNs(), 0, parent, op});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id) { spans_[id].end_ns = NowNs(); }
  /// Records a span whose interval was measured by the caller.
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t op, int32_t parent) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, op});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// RAII span around one call; a no-op when `tracer` is null.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int64_t op, int32_t parent)
      : tracer_(tracer), id_(tracer ? tracer->Open(name, op, parent) : -1) {}
  ~SpanScope() {
    if (tracer_) tracer_->Close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Writes every span as one CSV line (`op,id,parent,name,start_ns,
/// end_ns`) to `path`; returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

/// Everything one run reports.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool checks_passed = true;
  /// Name -> (value, unit), in insertion order for the text report.
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Adds the end-to-end metrics every workload reports, all of them in
/// CPU time (see ProcessCpuNs): setup_s (median set-up), ops_per_cpu_s
/// (ops over the window's process CPU seconds), peak_rss_mb and the
/// median CPU time per op over all ops, lookups and traversals
/// (`cpu_us` holds each op's CPU time). Notes give the wall-clock
/// figures: ops per second and, for all ops and per op class (`wall_us`),
/// the p50 and the highest of p90/p99 that has at least ten samples
/// beyond it.
void AddEndToEnd(const LatencyLog& wall_us, const LatencyLog& cpu_us,
                 const Elapsed& window, const std::vector<Elapsed>& setups,
                 Report* report);

/// Adds `trace.overhead_ratio` (untraced ÷ traced ops per CPU second,
/// over the same ops) and the per-layer self times
/// (`<layer>.self_us_per_op`) derived from the traced phase. A span's
/// self time is its duration minus the time its children cover; its
/// layer is the span name up to the first '.', and the op root span
/// belongs to the client (the benchmark itself).
void AddTraceMetrics(double untraced_ops_per_cpu_s,
                     double traced_ops_per_cpu_s,
                     int64_t traced_ops,
                     const std::vector<const Tracer*>& tracers,
                     Report* report);

double PeakRssMb();

/// Cumulative write counters of this process from /proc/self/io.
struct IoCounters {
  int64_t wchar = 0;
  int64_t syscw = 0;
};
IoCounters ReadProcIo();

/// Median latency of fdatasync after a 4 KiB append to a probe file in
/// `dir`: a reference figure for the device, not a program metric.
double DeviceFdatasyncUs(const std::string& dir);

/// Dies unless `db` runs `threads` workers with the default batch size:
/// the engine takes overrides of both from the environment.
void CheckEngineOptions(Database& db, size_t threads);

/// Aborts the run (non-zero exit, no result line) with a message.
[[noreturn]] void Die(const std::string& what);

/// `r.value()` or Die with the statement text.
QueryResult MustRun(Result<QueryResult> r, const std::string& what);

/// Seeded helpers.
inline size_t Pick(Rng& rng, size_t n) {
  return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
}
inline double Unit(Rng& rng) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng);
}
/// Index into `weights` drawn with probability proportional to weight.
size_t PickWeighted(Rng& rng, const std::vector<double>& weights);

// ---- Per-layer measurement (traced runs) --------------------------------

/// A statement the layer probes decompose: frontend calls one by one,
/// Explain vs Prepare for planning, and a warm-cache Execute(prepared).
struct ProbeStmt {
  std::string cls;
  std::string text;
  ValueMap params;
  /// Whether Explain applies (read statements only).
  bool read = true;
  /// Size of the label the statement scans for its anchor (0: none).
  size_t scan_nodes = 0;
};

/// Medians over the probed statements, in microseconds (ns for
/// `runtime.ns_per_scanned_node`), keyed by per-layer metric name.
using ProbeMetrics = std::map<std::string, double>;

/// Runs the probes on `db`, recording spans (one root span per probed
/// statement) in `tracer`.
ProbeMetrics ProbeLayers(Database& db, const std::vector<ProbeStmt>& stmts,
                         Tracer* tracer);

/// Engine and process counters read before and after the traced phase.
struct Counters {
  gqlite::PlanCacheStats plan;
  gqlite::BatchStats batch;
  uint64_t exec_queries = 0;
  gqlite::CypherEngine::ParallelStats parallel;
  IoCounters io;
  int64_t wal_bytes = 0;
};
/// `wal_path` empty for in-memory databases.
Counters ReadCounters(Database& db, const std::string& wal_path);
/// Adds `after - before` to `*sum`.
void AddDelta(const Counters& after, const Counters& before, Counters* sum);

/// A run is cut into this many slices. Each slice sets the database up
/// afresh, warms it up and then measures: untraced runs for --seconds /
/// kSlices; traced runs for half that untraced, then replay the same ops
/// traced, so trace.overhead_ratio compares equal work. The set-ups are
/// thus spread over the whole run like the ops, and setup_s sees the
/// host's drift over the run as the other metrics do, not the drift of
/// the few seconds before the first op.
constexpr int kSlices = 8;
/// Warm-up after each set-up (plans cached, lazy set-up done); its ops
/// are checked but not measured.
constexpr double kWarmupSeconds = 0.25;

/// What a workload measured for the per-layer metrics. Fields a
/// workload does not exercise stay 0 (an in-memory database writes no
/// WAL; a read-only workload commits nothing).
struct LayerInputs {
  /// Counter deltas summed over the traced slices.
  Counters traced;
  /// Ops, committed write transactions and writer-slot conflicts of the
  /// traced phase.
  int64_t ops = 0;
  int64_t writes = 0;
  int64_t conflicts = 0;
  /// Per write transaction: time from its first Begin(kWrite) attempt to
  /// the attempt that got the writer slot.
  std::vector<double> writer_wait_us;
  std::vector<const Tracer*> op_tracers;
  ProbeMetrics probes;
  double exec_speedup = 0;
  double checkpoint_ms = 0;
  double checkpoint_bytes = 0;
  double recovery_ms = 0;
  double device_fdatasync_us = 0;
};
void AddLayerMetrics(const LayerInputs& in, Report* report);

// ---- Single-client text workloads (analytics, short_text) ---------------

/// One statement a text client sends. `key` identifies the exact text
/// (equal keys, equal texts), so one oracle answer checks every execution.
struct TextOp {
  const std::string* text = nullptr;
  const char* cls = "";
  bool ordered = false;
  uint32_t key = 0;
};

/// A text workload: its set-up, the seeded statement stream, the oracle
/// that answers each statement independently, and the layer probes of
/// its traced run.
struct TextWorkload {
  /// The database of the last set-up.
  Database* db = nullptr;
  /// Drops the database (untimed), builds it afresh from the seed, points
  /// `db` at it and returns the time the build took.
  std::function<Elapsed()> setup;
  /// Set-ups per slice; the median over all of them is setup_s.
  int setups_per_slice = 1;
  std::function<TextOp()> next;
  std::function<Result<uint64_t>(const TextOp&)> oracle_fingerprint;
  /// Fills LayerInputs::probes (and exec_speedup) after the traced phase
  /// and the oracle check, so the oracle's plans are cached.
  std::function<void(LayerInputs*, Tracer*)> probe;
};

/// Runs the closed loop (Prepare, then Execute of the prepared handle,
/// one statement after another) in kSlices slices, each on a fresh
/// set-up, and checks every result against the oracle. Traced runs then
/// probe the layers.
Report RunTextWorkload(const Options& opt, TextWorkload& w);

Report RunAnalytics(const Options& opt);
Report RunOltp(const Options& opt);
Report RunShortText(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_COMMON_H_
