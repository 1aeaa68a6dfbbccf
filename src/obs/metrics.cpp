#include "obs/metrics.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"

namespace remo::obs {

namespace {

bool initial_enabled() {
  const char* env = std::getenv("REMO_OBS_DISABLED");
  if (env == nullptr || env[0] == '\0') return true;
  return env[0] == '0' && env[1] == '\0';  // "0" keeps obs on
}

std::atomic<bool> g_enabled{initial_enabled()};

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

// ---- Histogram ------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::observe(double v) noexcept {
  // First bucket whose upper bound contains v; past-the-end = overflow.
  const std::size_t i =
      static_cast<std::size_t>(std::lower_bound(bounds_.begin(), bounds_.end(), v) -
                               bounds_.begin());
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::assign(const Snapshot& s) {
  REMO_ASSERT(s.bounds == bounds_, "histogram assign: ", s.bounds.size(),
              " snapshot bounds against ", bounds_.size(), " registered");
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    counts_[i].store(s.counts[i], std::memory_order_relaxed);
  count_.store(s.count, std::memory_order_relaxed);
  sum_.store(s.sum, std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    counts_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::time_bounds() {
  return {1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0};
}

// ---- Registry -------------------------------------------------------------

Counter& Registry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

RegistrySnapshot Registry::snapshot() const {
  MutexLock lock(mutex_);
  RegistrySnapshot s;
  for (const auto& [name, c] : counters_) s.counters.emplace(name, c->value());
  for (const auto& [name, g] : gauges_) s.gauges.emplace(name, g->value());
  for (const auto& [name, h] : histograms_)
    s.histograms.emplace(name, h->snapshot());
  return s;
}

void Registry::reset() {
  MutexLock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::size_t Registry::size() const {
  MutexLock lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // leaked: outlives all users
  return *instance;
}

std::string labeled_name(const std::string& name, const std::string& label) {
  const std::size_t dot = name.find('.');
  if (dot == std::string::npos) return label + "." + name;
  return name.substr(0, dot + 1) + label + name.substr(dot);
}

void publish_labeled(const RegistrySnapshot& snap, const std::string& label,
                     Registry& out) {
  for (const auto& [name, value] : snap.counters) {
    Counter& c = out.counter(labeled_name(name, label));
    c.reset();
    c.add(value);
  }
  for (const auto& [name, value] : snap.gauges)
    out.gauge(labeled_name(name, label)).set(value);
  for (const auto& [name, hist] : snap.histograms)
    out.histogram(labeled_name(name, label), hist.bounds).assign(hist);
}

}  // namespace remo::obs
