// Churn bench (DESIGN.md §13): sustained task-update throughput through
// the delta replanning path — TaskManager mutations stream in as exact
// TaskDeltas, merge into one pending delta (TaskDelta::merge, as the
// MonitoringSystem facade batches churn between reads), and
// AdaptivePlanner::apply_delta replans over the merged burst. A
// non-incremental ADAPTIVE reference applies the full deduplicated pair
// set at the very same replan epochs, proving the delta path
// bit-identical (same collected pairs) while skipping the full-set diff
// per replan.
//
// Determinism contract (the perf_smoke gate matches `collected` exactly):
// the replan cadence depends only on the synthetic epoch clock — wall
// time is measured but never feeds a decision. Timing columns are
// machine-dependent and gated with slack; everything else is
// bit-reproducible.
#include "bench/bench_support.h"

#include <chrono>

#include "adapt/adaptive_planner.h"
#include "planner/topology.h"

namespace remo::bench {
namespace {

constexpr CostModel kCost{10.0, 1.0};
constexpr std::size_t kUniverse = 24;
constexpr std::size_t kBatches = 96;
// Replan window in synthetic epochs (one epoch per batch): a window opens
// at the first batch that leaves a non-empty pending delta, and the
// merged delta is applied once this many epochs have passed. Sustained
// throughput is the whole point here, so bursts are large and the local
// search runs on the quick budget below — quality is pinned by the
// collected column and the bit-identity check, not by search depth.
constexpr double kReplanEveryEpochs = 32.0;
constexpr std::size_t kMaxCandidates = 8;
constexpr std::size_t kMaxIterations = 32;

struct ChurnResult {
  std::size_t updates = 0;        // task modifications processed
  std::size_t replans = 0;        // delta replans (incl. final drain)
  std::size_t pairs_changed = 0;  // Σ |merged delta| over replans
  double churn_seconds = 0.0;     // manager mutation (shared by both paths)
  double incr_seconds = 0.0;      // delta merges + window checks + delta replans
  double ref_seconds = 0.0;       // dedup + full-diff apply_update replans
  double naive_seconds = 0.0;     // per-batch full-diff replans (no coalescing)
  std::size_t naive_replans = 0;  // one per batch, by construction
  std::size_t collected = 0;      // collected pairs at end (delta path)
  bool identical = true;          // delta vs reference, at every replan
  obs::Histogram::Snapshot latency;  // planner.delta.replan_seconds
};

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Upper bound (ms) of the histogram bucket holding quantile `q` — the
/// resolution planner.delta.replan_seconds offers (decade buckets).
double quantile_upper_ms(const obs::Histogram::Snapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const double target = q * static_cast<double>(h.count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    seen += h.counts[i];
    if (static_cast<double>(seen) >= target)
      return (i < h.bounds.size() ? h.bounds[i] : h.bounds.back() * 10.0) * 1e3;
  }
  return h.bounds.back() * 10.0 * 1e3;
}

ChurnResult run_churn(std::size_t nodes) {
  // Provisioned for sustained churn: enough per-node and collector slack
  // that replans stay in the cheap greedy-construction regime (the
  // saturation-driven adjusting procedure is Fig. 10's subject, not this
  // bench's — under starvation a single replan costs seconds and no
  // coalescing policy can reach the throughput floor).
  SystemModel system(nodes, 360.0, kCost);
  system.set_collector_capacity(16.0 * static_cast<double>(nodes));
  Rng attr_rng{3};
  system.assign_random_attributes(kUniverse, 8, attr_rng);

  TaskManager manager(&system);
  WorkloadGenerator gen(system, WorkloadConfig{.attr_universe = kUniverse}, 23);
  for (auto& t : gen.small_tasks(nodes)) manager.add_task(std::move(t));

  // Private registries: the latency histogram then holds exactly this
  // run's delta replans, and the reference planner's series stay apart.
  obs::Registry incr_registry;
  PlannerOptions incr_options = planner_options(PartitionScheme::kRemo);
  incr_options.max_candidates = kMaxCandidates;
  incr_options.max_iterations = kMaxIterations;
  incr_options.metrics = &incr_registry;
  AdaptivePlanner incr(system, incr_options, AdaptScheme::kAdaptive);

  obs::Registry ref_registry;
  PlannerOptions ref_options = incr_options;
  ref_options.metrics = &ref_registry;
  AdaptivePlanner ref(system, ref_options, AdaptScheme::kAdaptive);

  // The no-coalescing strawman: a full dedup + diff + replan after every
  // batch, the cadence the core used before the delta path existed. Only
  // its cost is recorded — correctness is pinned by `ref` above, which
  // replans at the delta path's exact epochs so topologies are comparable.
  obs::Registry naive_registry;
  PlannerOptions naive_options = incr_options;
  naive_options.metrics = &naive_registry;
  AdaptivePlanner naive(system, naive_options, AdaptScheme::kAdaptive);

  const PairSet initial = manager.dedup(system.num_vertices());
  incr.initialize(initial, 0.0);
  ref.initialize(initial, 0.0);
  naive.initialize(initial, 0.0);

  ChurnResult out;
  Rng churn{17};
  TaskDelta pending;
  double window_opened = 0.0;
  const auto replan_both = [&](double now) {
    auto t0 = std::chrono::steady_clock::now();
    const AdaptReport report = incr.apply_delta(pending, now);
    pending = TaskDelta{};
    out.incr_seconds += since(t0);
    ++out.replans;
    out.pairs_changed += report.pairs_changed;

    t0 = std::chrono::steady_clock::now();
    ref.apply_update(manager.dedup(system.num_vertices()), now);
    out.ref_seconds += since(t0);
    if (collected_pairs_of(incr.topology()) !=
        collected_pairs_of(ref.topology()))
      out.identical = false;
  };

  for (std::size_t b = 1; b <= kBatches; ++b) {
    const double now = static_cast<double>(b);
    auto t0 = std::chrono::steady_clock::now();
    const UpdateBatchStats stats =
        apply_update_batch(manager, system, kUniverse, churn);
    out.churn_seconds += since(t0);
    out.updates += stats.tasks_modified;

    t0 = std::chrono::steady_clock::now();
    if (pending.pairs.empty()) window_opened = now;
    pending.merge(stats.delta);
    const bool replan =
        !pending.pairs.empty() && now - window_opened >= kReplanEveryEpochs;
    out.incr_seconds += since(t0);
    if (replan) replan_both(now);

    t0 = std::chrono::steady_clock::now();
    naive.apply_update(manager.dedup(system.num_vertices()), now);
    out.naive_seconds += since(t0);
    ++out.naive_replans;
  }
  // Drain the tail so both planners end on the full churn stream.
  if (!pending.pairs.empty()) replan_both(static_cast<double>(kBatches + 1));

  out.collected = incr.topology().collected_pairs();
  out.latency = incr_registry
                    .histogram("planner.delta.replan_seconds",
                               obs::Histogram::time_bounds())
                    .snapshot();
  // Ride the per-size metrics into the bench JSON telemetry. The label is
  // built by appending: GCC 12 raises a false -Wrestrict on
  // "n" + std::to_string(...) at -O3.
  std::string label = "n";
  label += std::to_string(nodes);
  obs::publish_labeled(incr_registry.snapshot(), label, obs::Registry::global());
  return out;
}

}  // namespace
}  // namespace remo::bench

int main(int argc, char** argv) {
  remo::bench::init("churn", argc, argv);
  using namespace remo::bench;
  banner("Churn", "delta replanning under continuous task churn");

  const std::vector<std::size_t> sizes{80, 160, 320};
  std::vector<ChurnResult> results;
  results.reserve(sizes.size());
  for (std::size_t n : sizes) results.push_back(run_churn(n));

  subbanner("incremental churn replanning (merged-delta apply path)");
  {
    remo::Table t({"nodes", "batches", "updates", "replans", "us/update",
                   "updates/sec", "collected", "identical"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const auto& r = results[i];
      const double seconds = r.churn_seconds + r.incr_seconds;
      t.row()
          .add(static_cast<long long>(sizes[i]))
          .add(static_cast<long long>(kBatches))
          .add(static_cast<long long>(r.updates))
          .add(static_cast<long long>(r.replans))
          .add(seconds / static_cast<double>(r.updates) * 1e6, 2)
          .add(static_cast<double>(r.updates) / seconds, 0)
          .add(static_cast<long long>(r.collected))
          .add(r.identical ? "yes" : "NO");
    }
    emit(t);
  }

  subbanner("replan latency (planner.delta.replan_seconds histogram)");
  {
    remo::Table t({"nodes", "replans", "pairs changed", "mean (ms)",
                   "p50 <= (ms)", "p99 <= (ms)"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const auto& r = results[i];
      t.row()
          .add(static_cast<long long>(sizes[i]))
          .add(static_cast<long long>(r.replans))
          .add(static_cast<long long>(r.pairs_changed))
          .add(r.latency.mean() * 1e3, 2)
          .add(quantile_upper_ms(r.latency, 0.50), 2)
          .add(quantile_upper_ms(r.latency, 0.99), 2);
    }
    emit(t);
  }

  subbanner("coalescing amortization (vs per-batch full-diff replanning)");
  {
    remo::Table t({"nodes", "replans", "naive replans", "incr us/update",
                   "naive us/update", "speedup"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const auto& r = results[i];
      const double incr = r.churn_seconds + r.incr_seconds;
      const double naive = r.churn_seconds + r.naive_seconds;
      t.row()
          .add(static_cast<long long>(sizes[i]))
          .add(static_cast<long long>(r.replans))
          .add(static_cast<long long>(r.naive_replans))
          .add(incr / static_cast<double>(r.updates) * 1e6, 2)
          .add(naive / static_cast<double>(r.updates) * 1e6, 2)
          .add(naive / incr, 2);
    }
    emit(t);
    std::printf(
        "(naive = dedup + full-set diff + replan after every batch, the\n"
        "pre-delta cadence; the delta path merges each %.0f-epoch burst and\n"
        "replans once per burst. Bit-identity is checked against a\n"
        "same-epoch reference, so the speedup buys zero planning drift)\n",
        kReplanEveryEpochs);
  }
  return 0;
}
