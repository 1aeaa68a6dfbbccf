// remo_perfbench — the program behind the repository benchmark.
//
//   remo_perfbench --workload plan|ingest|churn --seed N --seconds S
//                  --trace 0|1 [--trace-file PATH] [--rev REV]
//
// Prints one line per metric (name, value, unit, sample count), a `meta`
// line with the run metadata, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured with the benchmark's spans
// off; with --trace 1 they are the per-layer ones, and the spans are
// written to the trace file. Exits 1 when an output check failed, 2 on a
// usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

using remo::perfbench::Metric;
using remo::perfbench::RunConfig;
using remo::perfbench::RunResult;
using remo::perfbench::Tracer;

int usage(const char* why) {
  std::fprintf(stderr,
               "remo_perfbench: %s\n"
               "usage: remo_perfbench --workload plan|ingest|churn --seed N "
               "--seconds S --trace 0|1 [--trace-file PATH] [--rev REV]\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, RunConfig& cfg) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      cfg.workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(cfg.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      cfg.trace = value[0] == '1';
    } else if (key == "--trace-file") {
      cfg.trace_path = value;
    } else if (key == "--rev") {
      cfg.rev = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

void print_metric(const Metric& m, const char* tag) {
  std::printf("%s %-32s %16.6f %-6s n=%zu%s%s\n", tag, m.name.c_str(), m.value,
              m.unit.c_str(), m.samples, m.note.empty() ? "" : "  # ", m.note.c_str());
}

void print_result(const RunResult& r) {
  for (const Metric& m : r.metrics) print_metric(m, "metric");
  for (const Metric& m : r.info) print_metric(m, "info  ");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  if (!parse_args(argc, argv, cfg)) return usage("bad arguments");
  if (cfg.rev.empty()) cfg.rev = "unknown";

  Tracer tracer(cfg.trace);
  RunResult result;
  if (cfg.workload == "plan") {
    result = remo::perfbench::run_plan(cfg, tracer);
  } else if (cfg.workload == "ingest") {
    result = remo::perfbench::run_ingest(cfg, tracer);
  } else if (cfg.workload == "churn") {
    result = remo::perfbench::run_churn(cfg, tracer);
  } else {
    return usage("unknown workload");
  }

  for (const Metric& m : result.metrics)
    if (!std::isfinite(m.value)) result.fail("metric " + m.name + " is not finite");
  for (const std::string& why : result.check_failures)
    std::printf("CHECK FAILED: %s\n", why.c_str());
  const std::string meta = remo::perfbench::meta_json(cfg);
  if (cfg.trace && !cfg.trace_path.empty()) {
    if (tracer.write_chrome_json(cfg.trace_path, meta))
      std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                  cfg.trace_path.c_str());
    else
      result.fail("cannot write trace file " + cfg.trace_path);
  }
  std::printf("workload %s seed %llu: %s\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? "per-layer metrics (traced run)" : "end-to-end metrics");
  std::printf("meta %s\n", meta.c_str());
  print_result(result);
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
