// gqlite_perfbench: the end-to-end benchmark of gqlite over its public
// Database / Session API. See perfbench/README.md.
//
//   gqlite_perfbench --workload analytics|oltp|short_text --seed N
//                    --seconds S --trace 0|1 --work-dir DIR
//
// Prints a human-readable report (lines starting with '#') and, as the
// last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics, traced runs
// the per-layer ones.
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "common.h"

namespace {

using perfbench::Die;

[[noreturn]] void Usage(const std::string& why) {
  Die(why + "\nusage: gqlite_perfbench --workload analytics|oltp|short_text "
            "--seed N --seconds S --trace 0|1 --work-dir DIR");
}

uint64_t ParseUint(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    Usage(std::string(flag) + ": not a whole number: " + text);
  }
  return v;
}

perfbench::Options ParseArgs(int argc, char** argv) {
  perfbench::Options opt;
  bool have[5] = {false, false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      opt.seed = ParseUint("--seed", value);
      have[1] = true;
    } else if (flag == "--seconds") {
      uint64_t s = ParseUint("--seconds", value);
      if (s < 1 || s > 3600) Usage("--seconds out of range");
      opt.seconds = static_cast<double>(s);
      have[2] = true;
    } else if (flag == "--trace") {
      uint64_t t = ParseUint("--trace", value);
      if (t > 1) Usage("--trace must be 0 or 1");
      opt.trace = t == 1;
      have[3] = true;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
      have[4] = true;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  for (bool h : have) {
    if (!h) Usage("every flag is required");
  }
  if (::mkdir(opt.work_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    Die("cannot create " + opt.work_dir + ": " + std::strerror(errno));
  }
  return opt;
}

/// The engine lets GQLITE_* variables override its options (workers,
/// batch size, plan choices) and inject crashes; the workloads measure
/// fixed configurations, so none may be set.
void RejectEngineOverrides() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GQLITE_", 7) == 0) {
      Die(std::string("unset the engine override ") + *e);
    }
  }
}

/// JSON number with every digit the double holds.
std::string Num(double v) {
  if (!std::isfinite(v)) Die("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt = ParseArgs(argc, argv);
  RejectEngineOverrides();
  perfbench::Report report;
  if (opt.workload == "analytics") {
    report = perfbench::RunAnalytics(opt);
  } else if (opt.workload == "oltp") {
    report = perfbench::RunOltp(opt);
  } else if (opt.workload == "short_text") {
    report = perfbench::RunShortText(opt);
  } else {
    Usage("unknown workload " + opt.workload);
  }
  if (report.failed > 0) report.checks_passed = false;

  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("# attempted %lld failed %lld error_ratio %.6f\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 0.0);
  for (const auto& note : report.notes) std::printf("# %s\n", note.c_str());
  for (const auto& [name, vu] : report.metrics) {
    std::printf("# %-34s %14.4f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.checks_passed ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : report.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + Num(vu.first) +
            ", \"unit\": \"" + vu.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
