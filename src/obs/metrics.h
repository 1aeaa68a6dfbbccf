// Lock-cheap metrics registry — the numeric half of the observability
// subsystem (DESIGN.md §9). A monitoring system must be able to monitor
// itself: the planner's evaluation engine, the delivery simulator, and the
// detect → repair → replan loop all publish their counters here so that
// one snapshot (obs/export.h) captures a whole run machine-readably.
//
// Design constraints, in order:
//   - increments must be safe from the evaluation engine's pool threads
//     and cost one relaxed atomic op (no registry lock on the hot path:
//     handles returned by the registry have stable addresses for its
//     lifetime, so callers resolve a metric once and increment forever);
//   - snapshots are deterministic (name-sorted) so exporters can be
//     golden-tested and bench series diffed across runs;
//   - a process-global default Registry serves the common case, while
//     every instrumented component accepts an injected Registry so tests
//     stay hermetic.
//
// The global enabled() switch (env REMO_OBS_DISABLED) gates *auxiliary*
// instrumentation: trace spans and mirror metrics that merely duplicate a
// functional report (SimReport, RepairReport). Metrics that back a
// functional API (the engine counters behind Planner::last_stats) stay on
// regardless — they replaced equivalent bespoke atomics one-for-one, so
// disabling them would change behavior without saving anything.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace remo::obs {

/// Process-wide switch for auxiliary instrumentation (spans, mirror
/// metrics). Defaults to on; the REMO_OBS_DISABLED environment variable
/// (set to anything but "0" or empty) starts the process with it off.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Monotonic event count. add() is one relaxed fetch_add — safe from any
/// thread, never a lock.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar; add() accumulates via CAS (used for summed
/// wall-clock seconds).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds,
/// with an implicit +inf overflow bucket appended. Bucket layout is fixed
/// at registration so observe() is one relaxed add into a preallocated
/// slot — no allocation, no lock, thread-safe.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  struct Snapshot {
    std::vector<double> bounds;        ///< upper bounds, ascending (no +inf)
    std::vector<std::uint64_t> counts; ///< bounds.size() + 1 (last = overflow)
    std::uint64_t count = 0;
    double sum = 0.0;
    double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };
  Snapshot snapshot() const;
  /// Overwrites every bucket, the count and the sum with `s`'s — set
  /// semantics, the histogram counterpart of Counter reset() + add().
  /// `s.bounds` must equal this histogram's bounds. Not atomic as a whole
  /// against a concurrent observe(), like snapshot().
  void assign(const Snapshot& s);
  void reset() noexcept;

  /// Default bounds for wall-clock seconds: decades from 10 µs to 100 s.
  static std::vector<double> time_bounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One deterministic (name-sorted) view of a whole registry.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Named metric store. Registration (counter()/gauge()/histogram()) takes
/// a mutex and is idempotent — the same name always returns the same
/// object, whose address is stable for the registry's lifetime. Keep the
/// returned reference and increment lock-free from there.
///
/// Lock discipline (DESIGN.md §16): `mutex_` guards the three name→metric
/// maps — registration, snapshot, reset, size. The metric objects
/// themselves are lock-free (atomics) and are incremented *outside* the
/// lock by design; only the map structure is a capability-protected
/// region, which is what keeps the hot path one relaxed atomic op.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name) REMO_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name) REMO_EXCLUDES(mutex_);
  /// `bounds` are used only on first registration of `name`; a later call
  /// with different bounds returns the existing histogram unchanged.
  Histogram& histogram(const std::string& name, std::vector<double> bounds)
      REMO_EXCLUDES(mutex_);

  RegistrySnapshot snapshot() const REMO_EXCLUDES(mutex_);
  /// Zeroes every metric; registrations (and handed-out addresses) survive.
  void reset() REMO_EXCLUDES(mutex_);
  std::size_t size() const REMO_EXCLUDES(mutex_);

  /// The process-global default instance.
  static Registry& global();

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      REMO_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      REMO_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      REMO_GUARDED_BY(mutex_);
};

/// Injectable-registry convention used across the codebase: components
/// take a `Registry*` option, null meaning the process-global default.
inline Registry& registry_or_global(Registry* r) {
  return r != nullptr ? *r : Registry::global();
}

/// Inserts `label` after a metric name's first dotted component:
/// ("planner.cache_hits", "shard0") -> "planner.shard0.cache_hits".
/// Unqualified names gain the label as a prefix ("foo" -> "shard0.foo").
std::string labeled_name(const std::string& name, const std::string& label);

/// Re-publishes a registry snapshot into `out` under labeled names — the
/// federation tier's per-shard metric labels (DESIGN.md §12): each shard
/// core publishes `planner.*` / `recovery.*` into a private registry, and
/// the root republishes them as `planner.shard<k>.*` so one snapshot
/// carries every shard side by side. Counters, gauges and histograms are
/// copied with set semantics (idempotent per publish); a histogram
/// already registered under the labeled name must have the same bounds.
void publish_labeled(const RegistrySnapshot& snap, const std::string& label,
                     Registry& out);

}  // namespace remo::obs
