// Shared pieces of the repository benchmark (perfbench/README.md): run
// configuration, the result every workload returns, timing statistics,
// and the span tracer of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace remo::perfbench {

/// Evaluator threads pinned for every workload: half of the 4-core
/// reference box, so parallel scoring is exercised without competing
/// with other processes for the last cores.
constexpr std::size_t kEvalThreads = 2;

/// Seed of every workload's set-up input. It does not depend on the run's
/// seed, so every run's set-up does the same work and setup_s compares
/// like with like.
constexpr std::uint64_t kSetupSeed = 0x5e7;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace-event JSON output (traced run)
  std::string rev;         ///< source revision, as the launcher found it
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value (0 = n/a)
  std::string note;         ///< what the number is on this workload
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Printed with the metrics but not part of the result JSON.
  std::vector<Metric> info;
  std::vector<std::string> check_failures;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0, std::string note = {}) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples,
                             std::move(note)});
  }
  /// Records a failed output check; the run is then not correct.
  void fail(std::string why) {
    correct = false;
    if (check_failures.size() < 16) check_failures.push_back(std::move(why));
  }
};

// ---- timing ---------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU seconds (all threads).
double process_cpu_seconds();
/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Middle value (mean of the two middle ones for an even count); 0 when
/// empty.
inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

// ---- tracing --------------------------------------------------------------

/// In-memory span recorder of the traced run. A span records name, start,
/// end, parent span and step id; spans stay in memory and are written as
/// Chrome trace-event JSON at exit. Spans the library itself records
/// (obs::TraceRecorder::global(): planner.plan / iteration / evaluate /
/// build_full, recovery.*) are adopted under the benchmark span that was
/// open when they ran. Single-threaded: only the benchmark's main thread
/// opens spans.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    std::size_t parent = 0;  ///< index + 1 into spans(); 0 = root
    std::uint64_t step = 0;
    int track = 1;           ///< trace-viewer row: 1 = daemon / planner, 2 = mirror
  };

  /// An inert tracer (enabled = false) records nothing and costs one
  /// branch per scope.
  explicit Tracer(bool enabled);

  /// RAII span. With `adopt_library` the library spans recorded while it
  /// was open become its descendants. Only innermost scopes adopt: an
  /// adopting scope drops the library spans recorded before it opened.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, bool adopt_library = false);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Index + 1 of this span in spans() (0 when inert).
    std::size_t id() const noexcept { return tracer_ ? index_ + 1 : 0; }

   private:
    Tracer* tracer_ = nullptr;  ///< null = inert
    std::size_t index_ = 0;
    bool adopt_ = false;
  };

  void set_step(std::uint64_t step) noexcept { step_ = step; }
  void set_track(int track) noexcept { track_ = track; }
  /// Parent (index + 1) given to the next root-level scopes instead of
  /// none: the mirror phases replay the daemon's run_epoch, so they are
  /// its logical children although they run after it. 0 = roots.
  void set_logical_parent(std::size_t parent) noexcept { logical_parent_ = parent; }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Per span: duration minus the durations of its direct children.
  std::vector<double> self_seconds() const;

  /// Writes {"traceEvents": [...], "otherData": meta} to `path`.
  bool write_chrome_json(const std::string& path,
                         const std::string& meta_json) const;

 private:
  double now_s() const { return seconds_between(t0_, Clock::now()); }
  void adopt_library(std::size_t parent_index);

  bool enabled_ = false;
  Clock::time_point t0_;
  /// When the library recorder was last cleared (its start_s origin).
  Clock::time_point library_origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of open spans (stack)
  std::uint64_t step_ = 0;
  int track_ = 1;
  std::size_t logical_parent_ = 0;
};

/// Per-layer time of the traced steps: Σ self time by layer (a span's
/// layer is its name up to the first '.') over every span under a root
/// span named `step_name`; the roots' own self time is the residual — step
/// time spent under no layer span.
struct Breakdown {
  std::vector<std::pair<std::string, double>> layer_seconds;
  double residual_seconds = 0.0;
  double step_seconds = 0.0;
  std::size_t steps = 0;
  double share(const std::string& layer) const;
};
Breakdown breakdown(const Tracer& tracer, const std::string& step_name);
/// Durations (ms) of the spans named `name`, their sum (s), their number.
std::vector<double> durations_ms(const Tracer& tracer, const std::string& name);
double total_seconds(const Tracer& tracer, const std::string& name);
std::size_t count(const Tracer& tracer, const std::string& name);
/// Per step id: Σ self time of spans named `name`.
std::vector<double> self_seconds_per_step(const Tracer& tracer,
                                          const std::string& name);

// ---- metrics ------------------------------------------------------------------

/// The end-to-end metrics (BENCHMARK.json `end_to_end`), measured with
/// tracing off. Every workload reports all of them; a "step" is one plan
/// on `plan` and one daemon epoch on `ingest` / `churn`.
struct EndToEnd {
  std::vector<double> step_seconds;
  std::vector<double> step_work;  ///< work units per step: 1 plan, or values applied
  const char* work_unit = "";     ///< what step_work counts
  double coverage = 0.0;       ///< collected ÷ requested pairs
  double cost_per_pair = 0.0;  ///< message volume ÷ collected pairs
  std::vector<double> setup_seconds;
};
void add_end_to_end(RunResult& r, const EndToEnd& e);

/// The per-layer metrics (BENCHMARK.json `per_layer`) of the traced run.
/// Every workload reports all of them; a layer the workload does not
/// exercise reads 0.
struct LayerReport {
  std::size_t steps = 0;
  double task_dedup_ms = 0.0;
  double planner_evaluations = 0.0;
  double planner_iterations = 0.0;
  double planner_eval_us = 0.0;
  double planner_build_full_ms = 0.0;
  double planner_iteration_self_ms = 0.0;
  double planner_cache_hit_ratio = 0.0;
  double planner_parallel_eff = 0.0;
  double planner_evaluations_per_replan = 0.0;
  double service_push_us_per_value = 0.0;
  double service_run_epoch_ms_p50 = 0.0;
  double service_wire_bytes_per_epoch = 0.0;
  double service_queue_depth_peak = 0.0;
  double service_collected_value_share = 0.0;
  double federation_deliver_us_per_value = 0.0;
  double collector_end_epoch_ms = 0.0;
  double collector_suspicions = 0.0;
  double core_modify_us = 0.0;
  double adapt_replans = 0.0;
  double adapt_replan_ms = 0.0;
  double adapt_replan_share = 0.0;
  double adapt_msgs_per_update = 0.0;
  double obs_trace_overhead = 0.0;
  Breakdown breakdown;
  // Workload properties a later claim cites.
  double requested_pairs = 0.0;
  double collected_pairs = 0.0;
  double replan_step_share = 0.0;
};
void add_layer_metrics(RunResult& r, const LayerReport& l);

// ---- workloads --------------------------------------------------------------

RunResult run_plan(const RunConfig& cfg, Tracer& tracer);
RunResult run_ingest(const RunConfig& cfg, Tracer& tracer);
RunResult run_churn(const RunConfig& cfg, Tracer& tracer);

/// Run metadata (git rev, build, compiler, CPU, threads, SIMD, obs) as one
/// JSON object — printed with every result and embedded in the trace.
std::string meta_json(const RunConfig& cfg);

/// FNV-1a over a sorted pair list: the per-epoch collected-pair digest the
/// daemon-vs-mirror check compares.
std::uint64_t digest_pairs(const std::vector<NodeAttrPair>& pairs);

}  // namespace remo::perfbench
