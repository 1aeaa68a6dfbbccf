// Statistics, run metadata and the span tracer of the benchmark.
#include <sys/resource.h>

#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/wire.h"

namespace remo::perfbench {

using service::wire::json_escape;

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t digest_pairs(const std::vector<NodeAttrPair>& pairs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const NodeAttrPair& p : pairs) {
    mix(p.node);
    mix(p.attr);
  }
  return h ^ pairs.size();
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    const auto value =
        colon == std::string::npos ? colon : line.find_first_not_of(" \t", colon + 1);
    if (value == std::string::npos) break;
    return line.substr(value);
  }
  return "unknown";
}

}  // namespace

std::string meta_json(const RunConfig& cfg) {
  std::ostringstream os;
  os << "{\"rev\":\"" << json_escape(cfg.rev) << "\""
     << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
#if defined(__clang__)
     << ",\"compiler\":\"clang " << __clang_version__ << "\""
#elif defined(__GNUC__)
     << ",\"compiler\":\"gcc " << __VERSION__ << "\""
#endif
     << ",\"cxx_flags\":\"" << json_escape(PERFBENCH_CXX_FLAGS) << "\""
     << ",\"cpu\":\"" << json_escape(cpu_model()) << "\""
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"remo_simd_build\":" << (simd::compiled_with_avx2() ? "true" : "false")
     << ",\"remo_simd_runtime\":" << (simd::enabled() ? "true" : "false")
     << ",\"eval_threads\":" << kEvalThreads
     << ",\"obs\":" << (obs::enabled() ? "true" : "false")
     << ",\"trace\":" << (cfg.trace ? "true" : "false")
     << ",\"workload\":\"" << json_escape(cfg.workload) << "\""
     << ",\"seed\":" << cfg.seed << ",\"seconds\":" << cfg.seconds << "}";
  return os.str();
}

// ---- Tracer -----------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {
  if (!enabled_) return;
  obs::TraceRecorder::global().clear();
  library_origin_ = Clock::now();
}

Tracer::Scope::Scope(Tracer& t, const char* name, bool adopt_library) {
  if (!t.enabled_) return;
  tracer_ = &t;
  adopt_ = adopt_library;
  index_ = t.spans_.size();
  Span s;
  s.name = name;
  s.parent = t.open_.empty() ? t.logical_parent_ : t.open_.back() + 1;
  s.step = t.step_;
  s.track = t.track_;
  if (adopt_) {
    // Library spans recorded before this scope opened are not its work.
    // Adopting scopes are innermost, so this drops no open scope's spans.
    obs::TraceRecorder::global().clear();
    t.library_origin_ = Clock::now();
  }
  s.start_s = t.now_s();
  t.spans_.push_back(std::move(s));
  t.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Tracer& t = *tracer_;
  t.spans_[index_].end_s = t.now_s();
  t.open_.pop_back();
  if (adopt_) t.adopt_library(index_ + 1);
}

void Tracer::adopt_library(std::size_t parent) {
  const std::vector<obs::SpanRecord> records = obs::TraceRecorder::global().records();
  const double origin = seconds_between(t0_, library_origin_);
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  const std::size_t base = spans_.size();
  for (std::size_t i = 0; i < records.size(); ++i) index_of[records[i].id] = base + i;
  // Records come in completion order, children before their parents.
  for (const obs::SpanRecord& r : records) {
    Span s;
    s.name = r.name;
    s.start_s = origin + r.start_s;
    s.end_s = s.start_s + r.duration_s;
    const auto it = r.parent == 0 ? index_of.end() : index_of.find(r.parent);
    s.parent = it == index_of.end() ? parent : it->second + 1;
    s.step = step_;
    s.track = track_;
    spans_.push_back(std::move(s));
  }
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] += spans_[i].end_s - spans_[i].start_s;
  for (const Span& s : spans_)
    if (s.parent != 0) self[s.parent - 1] -= s.end_s - s.start_s;
  return self;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& meta) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"benchmark\"}},\n";
  out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
         "\"args\":{\"name\":\"batch mirror\"}}";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    std::snprintf(buf, sizeof buf,
                  ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,",
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, s.track);
    out << ",\n{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
        << json_escape(layer) << "\"" << buf << "\"args\":{\"id\":" << i + 1
        << ",\"parent\":" << s.parent << ",\"step\":" << s.step << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":" << meta << "}\n";
  return static_cast<bool>(out);
}

// ---- analysis ---------------------------------------------------------------

namespace {

/// Index of each span's root (the span itself for a root).
std::vector<std::size_t> roots_of(const std::vector<Tracer::Span>& spans) {
  std::vector<std::size_t> root(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::size_t r = i;
    while (spans[r].parent != 0) r = spans[r].parent - 1;
    root[i] = r;
  }
  return root;
}

}  // namespace

double Breakdown::share(const std::string& layer) const {
  if (step_seconds <= 0.0) return 0.0;
  for (const auto& [name, secs] : layer_seconds)
    if (name == layer) return secs / step_seconds;
  return 0.0;
}

Breakdown breakdown(const Tracer& tracer, const std::string& step_name) {
  const auto& spans = tracer.spans();
  const std::vector<double> self = tracer.self_seconds();
  const std::vector<std::size_t> root = roots_of(spans);
  std::map<std::string, double> by_layer;
  Breakdown b;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[root[i]].name != step_name) continue;
    if (root[i] == i) {
      ++b.steps;
      b.step_seconds += spans[i].end_s - spans[i].start_s;
      b.residual_seconds += self[i];
    } else {
      by_layer[spans[i].name.substr(0, spans[i].name.find('.'))] += self[i];
    }
  }
  b.layer_seconds.assign(by_layer.begin(), by_layer.end());
  return b;
}

std::vector<double> self_seconds_per_step(const Tracer& tracer,
                                          const std::string& name) {
  const auto& spans = tracer.spans();
  const std::vector<double> self = tracer.self_seconds();
  std::map<std::uint64_t, double> per_step;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == name) per_step[spans[i].step] += self[i];
  std::vector<double> out;
  for (const auto& [step, secs] : per_step) out.push_back(secs);
  return out;
}

std::vector<double> durations_ms(const Tracer& tracer, const std::string& name) {
  std::vector<double> out;
  for (const Tracer::Span& s : tracer.spans())
    if (s.name == name) out.push_back((s.end_s - s.start_s) * 1e3);
  return out;
}

double total_seconds(const Tracer& tracer, const std::string& name) {
  double total = 0.0;
  for (const Tracer::Span& s : tracer.spans())
    if (s.name == name) total += s.end_s - s.start_s;
  return total;
}

std::size_t count(const Tracer& tracer, const std::string& name) {
  std::size_t n = 0;
  for (const Tracer::Span& s : tracer.spans()) n += s.name == name;
  return n;
}

// ---- metric reports -----------------------------------------------------------

void add_end_to_end(RunResult& r, const EndToEnd& e) {
  const std::size_t n = e.step_seconds.size();
  std::vector<double> ms(e.step_seconds);
  for (double& v : ms) v *= 1e3;
  r.add("step_ms_p50", median(ms), "ms", n);
  // The sustainable rate of the closed loop: work ÷ Σ step time, so slow
  // steps count in full (the median above does not see them).
  const double mean_step = mean_of(e.step_seconds);
  r.add("work_per_s", mean_step > 0.0 ? mean_of(e.step_work) / mean_step : 0.0, "1/s", n,
        std::string(e.work_unit) + " ÷ Σ step time");
  r.add("coverage", e.coverage, "ratio", n);
  r.add("cost_per_pair", e.cost_per_pair, "cost", n);
  r.add("setup_s", median(e.setup_seconds), "s", e.setup_seconds.size(),
        "median over repeated set-ups");
  r.add("peak_rss_mb", peak_rss_mb(), "MB", 1);

  // Tails are printed, not gated: on a shared host they swing with the
  // neighbours far more than the median does (see perfbench/README.md).
  r.info.push_back({"step_ms_p90", percentile(ms, 90.0), "ms", n,
                    n >= 100 ? "" : "fewer than 100 steps: not a supported tail"});
  r.info.push_back({"step_ms_p99", percentile(ms, 99.0), "ms", n,
                    n >= 1000 ? "" : "fewer than 1000 steps: not a supported tail"});
}

void add_layer_metrics(RunResult& r, const LayerReport& l) {
  const std::size_t n = l.steps;
  r.add("task.dedup_ms", l.task_dedup_ms, "ms", n);
  r.add("planner.evaluations", l.planner_evaluations, "count", n);
  r.add("planner.iterations", l.planner_iterations, "count", n);
  r.add("planner.eval_us", l.planner_eval_us, "us", n);
  r.add("planner.build_full_ms", l.planner_build_full_ms, "ms", n);
  r.add("planner.iteration_self_ms", l.planner_iteration_self_ms, "ms", n);
  r.add("planner.cache_hit_ratio", l.planner_cache_hit_ratio, "ratio", n);
  r.add("planner.parallel_eff", l.planner_parallel_eff, "ratio", n);
  r.add("planner.evaluations_per_replan", l.planner_evaluations_per_replan,
        "count", n);
  r.add("service.push_us_per_value", l.service_push_us_per_value, "us", n);
  r.add("service.run_epoch_ms_p50", l.service_run_epoch_ms_p50, "ms", n);
  r.add("service.wire_bytes_per_epoch", l.service_wire_bytes_per_epoch,
        "bytes", n);
  r.add("service.queue_depth_peak", l.service_queue_depth_peak, "count", n);
  r.add("service.collected_value_share", l.service_collected_value_share,
        "ratio", n);
  r.add("federation.deliver_us_per_value", l.federation_deliver_us_per_value,
        "us", n);
  r.add("collector.end_epoch_ms", l.collector_end_epoch_ms, "ms", n);
  r.add("collector.suspicions", l.collector_suspicions, "count", n);
  r.add("core.modify_us", l.core_modify_us, "us", n);
  r.add("adapt.replans", l.adapt_replans, "count", n);
  r.add("adapt.replan_ms", l.adapt_replan_ms, "ms", n);
  r.add("adapt.replan_share", l.adapt_replan_share, "ratio", n);
  r.add("adapt.msgs_per_update", l.adapt_msgs_per_update, "msgs", n);
  r.add("obs.trace_overhead", l.obs_trace_overhead, "ratio", n);
  const Breakdown& b = l.breakdown;
  r.add("trace.residual_share",
        b.step_seconds > 0.0 ? b.residual_seconds / b.step_seconds : 0.0,
        "ratio", b.steps);
  for (const char* layer :
       {"task", "planner", "service", "federation", "collector", "core", "adapt"})
    r.add(std::string("self_share.") + layer, b.share(layer), "ratio", b.steps);
  r.add("workload.requested_pairs", l.requested_pairs, "count", n);
  r.add("workload.collected_pairs", l.collected_pairs, "count", n);
  r.add("workload.replan_step_share", l.replan_step_share, "ratio", n);
}

}  // namespace remo::perfbench
