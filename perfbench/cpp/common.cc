#include "common.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

#include "src/value/value_compare.h"

namespace perfbench {

namespace {

int64_t CpuClockNs(clockid_t clock) {
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) Die("clock_gettime of a CPU clock");
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int64_t ProcessCpuNs() { return CpuClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return CpuClockNs(CLOCK_THREAD_CPUTIME_ID); }

void LatencyLog::Keep(Reservoir* r, double us) {
  ++r->seen;
  if (r->samples.size() < kCapacity) {
    r->samples.push_back(us);
    return;
  }
  uint64_t slot = rng_() % static_cast<uint64_t>(r->seen);
  if (slot < kCapacity) r->samples[slot] = us;
}

const LatencyLog::Reservoir& LatencyLog::Of(const std::string& cls) const {
  static const Reservoir kEmpty;
  auto it = by_class_.find(cls);
  return it == by_class_.end() ? kEmpty : it->second;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

uint64_t Fingerprint(const Table& t, bool ordered) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const auto& f : t.fields()) h = h * 31 + std::hash<std::string>{}(f);
  uint64_t rows = 0;
  for (const auto& row : t.rows()) {
    uint64_t r = gqlite::RowHash(row);
    // splitmix64 finaliser, so a bag sum does not cancel equal rows.
    r += 0x9E3779B97F4A7C15ULL;
    r = (r ^ (r >> 30)) * 0xBF58476D1CE4E5B9ULL;
    r = (r ^ (r >> 27)) * 0x94D049BB133111EBULL;
    r ^= r >> 31;
    rows = ordered ? rows * 1099511628211ULL + r : rows + r;
  }
  return h ^ rows ^ (t.NumRows() * 0x100000001B3ULL);
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op,id,parent,name,start_ns,end_ns\n");
  int64_t base = 0;
  for (const Tracer* t : tracers) {
    const auto& spans = t->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%lld,%lld,%lld,%s,%lld,%lld\n",
                   static_cast<long long>(s.op),
                   static_cast<long long>(base + static_cast<int64_t>(i)),
                   s.parent < 0 ? -1LL : static_cast<long long>(base + s.parent),
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    base += static_cast<int64_t>(spans.size());
  }
  return std::fclose(f) == 0;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

namespace {

// A tail percentile is reported only where at least ten samples lie
// beyond it: the highest of p99 and p90 that has them.
std::string TailNote(const std::string& cls, const LatencyLog::Reservoir& r) {
  char buf[256];
  long long n = r.seen;
  double p50 = Percentile(r.samples, 0.5);
  if (n >= 1000) {
    std::snprintf(buf, sizeof(buf), "%s_p50_us %.1f, %s_p99_us %.1f (n=%lld)",
                  cls.c_str(), p50, cls.c_str(), Percentile(r.samples, 0.99), n);
  } else if (n >= 100) {
    std::snprintf(buf, sizeof(buf), "%s_p50_us %.1f, %s_p90_us %.1f (n=%lld)",
                  cls.c_str(), p50, cls.c_str(), Percentile(r.samples, 0.90), n);
  } else {
    std::snprintf(buf, sizeof(buf), "%s_p50_us %.1f, no tail (n=%lld)",
                  cls.c_str(), p50, n);
  }
  return buf;
}

}  // namespace

void AddEndToEnd(const LatencyLog& wall_us, const LatencyLog& cpu_us,
                 const Elapsed& window, const std::vector<Elapsed>& setups,
                 Report* report) {
  for (const char* cls : {"lookup", "traverse"}) {
    if (cpu_us.Of(cls).seen == 0) Die(std::string("no samples of class ") + cls);
  }
  std::vector<double> setup_cpu, setup_wall;
  for (const Elapsed& e : setups) {
    setup_cpu.push_back(e.cpu);
    setup_wall.push_back(e.wall);
  }
  report->Set("setup_s", Median(setup_cpu), "s");
  report->Set("ops_per_cpu_s",
              static_cast<double>(cpu_us.all().seen) / window.cpu, "1/cpu_s");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  report->Set("stmt_cpu_p50_us", Percentile(cpu_us.all().samples, 0.5), "us");
  report->Set("lookup_cpu_p50_us",
              Percentile(cpu_us.Of("lookup").samples, 0.5), "us");
  report->Set("traverse_cpu_p50_us",
              Percentile(cpu_us.Of("traverse").samples, 0.5), "us");

  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "setup over %zu set-ups: CPU s min %.4f max %.4f; "
                "wall-clock s median %.4f",
                setups.size(),
                *std::min_element(setup_cpu.begin(), setup_cpu.end()),
                *std::max_element(setup_cpu.begin(), setup_cpu.end()),
                Median(setup_wall));
  report->Note(buf);
  std::snprintf(buf, sizeof(buf),
                "wall-clock: ops_per_s %.1f over %.1f s, using %.2f CPUs",
                static_cast<double>(wall_us.all().seen) / window.wall,
                window.wall, window.cpu / window.wall);
  report->Note(buf);
  report->Note(TailNote("stmt", wall_us.all()));
  for (const auto& [cls, v] : wall_us.by_class()) {
    report->Note(TailNote(cls, v));
  }
  report->Note(TailNote("stmt_cpu", cpu_us.all()));
}

void AddTraceMetrics(double untraced_ops_per_cpu_s,
                     double traced_ops_per_cpu_s,
                     int64_t traced_ops,
                     const std::vector<const Tracer*>& tracers,
                     Report* report) {
  report->Set("trace.overhead_ratio",
              traced_ops_per_cpu_s > 0
                  ? untraced_ops_per_cpu_s / traced_ops_per_cpu_s
                  : 0,
              "ratio");
  std::map<std::string, double> layer_us;
  for (const Tracer* t : tracers) {
    const auto& spans = t->spans();
    // Children of one span run one after another on the same thread, so
    // the time they cover is the sum of their durations.
    std::vector<int64_t> self_ns(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      self_ns[i] += spans[i].end_ns - spans[i].start_ns;
      if (spans[i].parent >= 0) {
        self_ns[spans[i].parent] -= spans[i].end_ns - spans[i].start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      std::string name = spans[i].name;
      std::string layer = name.substr(0, name.find('.'));
      layer_us[layer == "op" ? "client" : layer] +=
          static_cast<double>(self_ns[i]) / 1e3;
    }
  }
  double ops = static_cast<double>(std::max<int64_t>(traced_ops, 1));
  for (const char* layer : {"client", "frontend", "runtime", "session"}) {
    report->Set(std::string(layer) + ".self_us_per_op", layer_us[layer] / ops,
                "us");
  }
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

IoCounters ReadProcIo() {
  IoCounters io;
  std::ifstream in("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") io.wchar = value;
    if (key == "syscw:") io.syscw = value;
  }
  return io;
}

double DeviceFdatasyncUs(const std::string& dir) {
  std::string path = dir + "/fdatasync-probe";
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) Die("cannot create " + path);
  std::vector<char> block(4096, 'x');
  std::vector<double> us;
  for (int i = 0; i < 21; ++i) {
    if (::write(fd, block.data(), block.size()) !=
        static_cast<ssize_t>(block.size())) {
      Die("write failed on " + path);
    }
    int64_t t0 = NowNs();
    if (::fdatasync(fd) != 0) Die("fdatasync failed on " + path);
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return Median(us);
}

void CheckEngineOptions(Database& db, size_t threads) {
  const gqlite::EngineOptions& o = db.engine().options();
  if (o.num_threads != threads || o.batch_size != gqlite::EngineOptions{}.batch_size) {
    Die("the engine runs " + std::to_string(o.num_threads) +
        " workers with batch size " + std::to_string(o.batch_size) +
        ", not the workload's " + std::to_string(threads) + " and the default");
  }
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stdout);
  std::_Exit(1);
}

QueryResult MustRun(Result<QueryResult> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

size_t PickWeighted(Rng& rng, const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  double x = Unit(rng) * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (x < weights[i]) return i;
    x -= weights[i];
  }
  return weights.size() - 1;
}

}  // namespace perfbench
