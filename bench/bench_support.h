// Shared scaffolding for the figure-reproduction benches. Each bench binary
// regenerates one figure of the paper's evaluation (Sec. 7) as an aligned
// text table; EXPERIMENTS.md records the series next to the paper's.
//
// Machine-readable telemetry (EXPERIMENTS.md, "Bench telemetry"): every
// bench main calls init(name, argc, argv); with `--json [path]` (or the
// REMO_BENCH_JSON env fallback) the process writes BENCH_<name>.json at
// exit, containing every emitted table section plus a snapshot of the
// global obs metrics registry — the engine/sim/recovery counters the run
// accumulated. This is what lets the perf trajectory build up across PRs
// without scraping text tables.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/sorted_vector.h"
#include "common/table.h"
#include "cost/system_model.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "planner/planner.h"
#include "task/task_manager.h"
#include "task/workload.h"

namespace remo::bench {

/// One synthetic-dataset scenario (Sec. 7 setup): a system with random
/// per-node observable attributes plus a task-driven pair set.
struct Scenario {
  SystemModel system;
  TaskManager manager;
  PairSet pairs;

  Scenario(std::size_t nodes, std::size_t universe, std::size_t attrs_per_node,
           Capacity node_cap, Capacity collector_cap, CostModel cost,
           std::uint64_t seed)
      : system(nodes, node_cap, cost), manager(&system), pairs(nodes + 1) {
    system.set_collector_capacity(collector_cap);
    Rng rng{seed};
    system.assign_random_attributes(universe, attrs_per_node, rng);
  }

  /// Adds tasks and refreshes the deduplicated pair set.
  void add_tasks(std::vector<MonitoringTask> tasks) {
    for (auto& t : tasks) manager.add_task(std::move(t));
    refresh();
  }

  /// Monitors every observable attribute on every node (full coverage —
  /// the heaviest workload).
  void monitor_everything() {
    MonitoringTask t;
    t.nodes = system.monitoring_nodes();
    std::vector<AttrId> all;
    for (NodeId n : t.nodes)
      for (AttrId a : system.observable(n)) all.push_back(a);
    sort_unique(all);
    t.attrs = std::move(all);
    manager.add_task(std::move(t));
    refresh();
  }

  void refresh() { pairs = manager.dedup(system.num_vertices()); }
};

inline PlannerOptions planner_options(PartitionScheme scheme,
                                      TreeScheme tree = TreeScheme::kAdaptive,
                                      AllocationScheme alloc = AllocationScheme::kOrdered) {
  PlannerOptions o;
  o.partition_scheme = scheme;
  o.tree.scheme = tree;
  o.allocation = alloc;
  // Bench-sized search budget: plenty for convergence at these scales while
  // keeping the full sweep under a minute per figure.
  o.max_candidates = 16;
  o.max_iterations = 256;
  return o;
}

inline double coverage(const Scenario& s, const PlannerOptions& o) {
  return Planner(s.system, o).plan(s.pairs).coverage() * 100.0;  // percent
}

// ---- machine-readable run telemetry ---------------------------------------

/// Per-process telemetry state behind init()/emit(): the recorded table
/// sections plus where (if anywhere) to write them.
struct BenchRun {
  std::string name;             ///< e.g. "fig10_optimization"
  std::string json_path;        ///< empty = JSON output disabled
  std::string current_section;  ///< last subbanner, labels the next table
  struct Section {
    std::string title;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };
  std::vector<Section> sections;
};

inline BenchRun& bench_run() {
  static BenchRun run;
  return run;
}

namespace detail {

/// JSON string literal: quoted and escaped (common/json.h).
inline std::string json_quote(const std::string& s) {
  return '"' + json_escape(s) + '"';
}

/// Table cells are preformatted strings; re-emit the numeric ones as JSON
/// numbers so consumers get series, not strings.
inline std::string json_cell(const std::string& cell) {
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  (void)v;
  const bool numeric = !cell.empty() && end != nullptr && *end == '\0' &&
                       cell.find_first_of("nNiI") == std::string::npos;  // no nan/inf
  if (numeric) return cell;
  return json_quote(cell);
}

inline void write_bench_json() {
  const BenchRun& run = bench_run();
  if (run.json_path.empty()) return;
  std::string out = "{\n";
  out += "  \"bench\": " + json_quote(run.name) + ",\n";
  out += "  \"sections\": [\n";
  for (std::size_t s = 0; s < run.sections.size(); ++s) {
    const auto& sec = run.sections[s];
    out += "    {\n";
    out += "      \"title\": " + json_quote(sec.title) + ",\n";
    out += "      \"headers\": [";
    for (std::size_t i = 0; i < sec.headers.size(); ++i) {
      if (i) out += ", ";
      out += json_quote(sec.headers[i]);
    }
    out += "],\n";
    out += "      \"rows\": [\n";
    for (std::size_t r = 0; r < sec.rows.size(); ++r) {
      out += "        [";
      for (std::size_t i = 0; i < sec.rows[r].size(); ++i) {
        if (i) out += ", ";
        out += json_cell(sec.rows[r][i]);
      }
      out += r + 1 < sec.rows.size() ? "],\n" : "]\n";
    }
    out += "      ]\n";
    out += s + 1 < run.sections.size() ? "    },\n" : "    }\n";
  }
  out += "  ],\n";
  out += "  \"metrics\": ";
  std::string metrics = obs::to_json(obs::Registry::global().snapshot(), 2);
  // Drop the indent of the opening brace: it follows "\"metrics\": ".
  metrics.erase(0, metrics.find('{'));
  out += metrics;
  out += "\n}\n";
  std::ofstream file(run.json_path);
  if (!file) {
    std::fprintf(stderr, "bench: cannot write %s\n", run.json_path.c_str());
    return;
  }
  file << out;
  std::fprintf(stderr, "bench: wrote %s\n", run.json_path.c_str());
}

}  // namespace detail

/// Call first in every bench main. Parses `--json [path]` (default path
/// BENCH_<name>.json in the working directory); when absent, the
/// REMO_BENCH_JSON environment variable is the fallback — a value ending
/// in ".json" is used as the path, anything else as a directory to drop
/// BENCH_<name>.json into. The file is written at process exit.
inline void init(const std::string& name, int argc, char** argv) {
  BenchRun& run = bench_run();
  run.name = name;
  const std::string default_file = "BENCH_" + name + ".json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--json") continue;
    if (i + 1 < argc && argv[i + 1][0] != '-')
      run.json_path = argv[i + 1];
    else
      run.json_path = default_file;
  }
  if (run.json_path.empty()) {
    if (const char* env = std::getenv("REMO_BENCH_JSON"); env && env[0]) {
      std::string value = env;
      if (value.size() >= 5 && value.compare(value.size() - 5, 5, ".json") == 0) {
        run.json_path = value;
      } else {
        if (value.back() == '/') value.pop_back();
        run.json_path = value + "/" + default_file;
      }
    }
  }
  if (!run.json_path.empty()) std::atexit(detail::write_bench_json);
}

/// Print a series table AND record it as a JSON section (under the last
/// subbanner's title). Benches route every table through this.
inline void emit(const Table& t, std::ostream& os = std::cout) {
  t.print(os);
  BenchRun& run = bench_run();
  if (run.json_path.empty()) return;
  run.sections.push_back(
      BenchRun::Section{run.current_section, t.headers(), t.rows()});
}

/// Header printed by every bench so bench_output.txt is self-describing.
inline void banner(const std::string& figure, const std::string& caption) {
  std::printf("\n=== %s — %s ===\n", figure.c_str(), caption.c_str());
}

inline void subbanner(const std::string& text) {
  std::printf("\n--- %s ---\n", text.c_str());
  bench_run().current_section = text;
}

}  // namespace remo::bench
