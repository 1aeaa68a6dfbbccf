// Service-mode replay bench (DESIGN.md §14): StreamApplication traffic
// replayed through the MonitoringDaemon's async ingest path — one value
// batch per node per epoch, exactly what a fleet of node agents would
// push — with a batch-mode FederatedMonitoringSystem mirror applying the
// same churn at the same virtual clock, proving the daemon's collected
// pairs bit-identical while the bench measures ingest throughput and the
// obs-backed ingest-to-collected latency histogram.
//
// Determinism contract (the perf_smoke gate matches `collected` exactly):
// the daemon runs on its virtual clock, so plans, flush cadences, and the
// latency histogram are pure functions of the command sequence — wall
// time is measured but never feeds a decision. Timing columns are
// machine-dependent and gated with slack; everything else is
// bit-reproducible.
//
// The second section deliberately overloads the daemon (per-epoch value
// budget at half the offered load, a low shed watermark) to show
// backpressure degrading gracefully: deferral debt and shed values are
// accounted, never silent, and the latency tail stretches into multiple
// epochs while the plan stays intact.
#include "bench/bench_support.h"

#include <chrono>
#include <string>
#include <vector>

#include "federation/federated_system.h"
#include "service/daemon.h"
#include "streamapp/stream_app.h"

namespace remo::bench {
namespace {

constexpr CostModel kCost{10.0, 1.0};
constexpr std::size_t kEpochs = 64;
constexpr std::size_t kChurnEvery = 8;  ///< one task modify per 8 epochs

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Upper bound (in epochs; epoch_duration = 1) of the histogram bucket
/// holding quantile `q` of service.ingest_to_collected_seconds.
double quantile_upper_epochs(const obs::Histogram::Snapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const double target = q * static_cast<double>(h.count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    seen += h.counts[i];
    if (static_cast<double>(seen) >= target)
      return i < h.bounds.size() ? h.bounds[i] : h.bounds.back() * 2.0;
  }
  return h.bounds.back() * 2.0;
}

struct ReplayResult {
  std::size_t epochs = 0;
  std::size_t values_offered = 0;   // values pushed at the producers
  std::size_t values_applied = 0;   // values the run loop ingested
  std::size_t values_shed = 0;      // dropped at admission (overload run)
  std::size_t deferred = 0;         // Σ value·epochs of queued backlog
  std::size_t replans = 0;          // task modifies routed through the bus
  std::size_t collected = 0;        // collected pairs at the final epoch
  bool identical = true;            // daemon vs batch mirror, every epoch
  double ingest_seconds = 0.0;      // submit + run_epoch wall time
  double steady_seconds = 0.0;      // the same, over epochs that planned nothing
  std::size_t steady_values = 0;    // values applied in those epochs
  obs::Histogram::Snapshot latency; // service.ingest_to_collected_seconds
};

/// Replays kEpochs of streamapp traffic. `value_budget` caps values
/// applied per epoch (0 = keep up with the offered load); `mirror` adds
/// the batch-mode bit-identity check (skipped in the overload run, where
/// shedding is the subject, not equivalence).
ReplayResult run_replay(std::size_t nodes, std::size_t value_budget,
                        bool mirror) {
  SystemModel model(nodes, 360.0, kCost);
  model.set_collector_capacity(16.0 * static_cast<double>(nodes));
  StreamAppConfig app_config;
  app_config.num_operators = nodes;
  StreamApplication app(model, app_config, /*seed=*/41);

  obs::Registry registry;
  service::DaemonOptions options;
  options.federation.shard.planner = planner_options(PartitionScheme::kRemo);
  options.federation.shard.planner.max_candidates = 8;
  options.federation.shard.planner.max_iterations = 32;
  options.max_values_per_epoch = value_budget;
  if (value_budget > 0)  // overload run: shed once the backlog is deep
    options.bus = service::BusOptions{.capacity = 2048, .shed_watermark = 1024};
  options.metrics = &registry;
  service::MonitoringDaemon daemon(model, options);

  obs::Registry mirror_registry;
  federation::FederationOptions mirror_options;
  mirror_options.shard = options.federation.shard;
  mirror_options.metrics = &mirror_registry;
  federation::FederatedMonitoringSystem batch(model, mirror_options);

  // Task set over the streamapp's attribute universe; churned below.
  WorkloadGenerator gen(
      model, WorkloadConfig{.attr_universe = app.attr_universe()}, 29);
  std::vector<MonitoringTask> tasks = gen.small_tasks(nodes / 4);
  std::vector<TaskId> ids;
  TaskId next_id = 1;
  for (const auto& t : tasks) {
    daemon.submit_add_task(t);
    MonitoringTask copy = t;
    copy.id = 0;
    batch.add_task(std::move(copy));
    ids.push_back(next_id++);
  }

  ReplayResult out;
  Rng churn{57};
  for (std::size_t e = 1; e <= kEpochs; ++e) {
    // Traffic generation is the application's cost, not the daemon's —
    // untimed.
    app.advance(e);
    const auto values = app.current_values();

    MonitoringTask modified;
    const bool do_churn = e % kChurnEvery == 0;
    if (do_churn) {
      const std::size_t i = churn.below(tasks.size());
      MonitoringTask next = tasks[i];
      next.attrs.clear();
      next.attrs.push_back(
          static_cast<AttrId>(churn.below(app.attr_universe())));
      next.attrs.push_back(
          static_cast<AttrId>(churn.below(app.attr_universe())));
      sort_unique(next.attrs);
      tasks[i] = next;
      next.id = ids[i];
      modified = next;
    }

    // An epoch whose plan generation does not move neither planned nor
    // replanned: it is the steady ingest path alone.
    const std::uint64_t generation = daemon.system().generation();
    const std::uint64_t applied = daemon.stats().values_applied;
    const auto t0 = std::chrono::steady_clock::now();
    // One batch per node — the shape a fleet of per-node agents produces.
    std::vector<service::ValueUpdate> node_batch;
    for (std::size_t i = 0; i < values.size();) {
      const NodeId node = values[i].first.node;
      node_batch.clear();
      for (; i < values.size() && values[i].first.node == node; ++i)
        node_batch.push_back(service::ValueUpdate{
            node, values[i].first.attr, values[i].second});
      out.values_offered += node_batch.size();
      daemon.submit_values(node, node_batch);
    }
    if (do_churn) {
      daemon.submit_modify_task(modified);
      ++out.replans;
    }
    daemon.run_epoch();
    const double epoch_seconds = since(t0);
    out.ingest_seconds += epoch_seconds;
    if (daemon.system().generation() == generation) {
      out.steady_seconds += epoch_seconds;
      out.steady_values += daemon.stats().values_applied - applied;
    }

    if (mirror) {
      if (do_churn) batch.modify_task(modified);
      batch.end_epoch(e);
      if (daemon.last_collected() !=
          batch.collected_pairs(static_cast<double>(e)))
        out.identical = false;
    }
  }

  out.epochs = kEpochs;
  out.values_applied = daemon.stats().values_applied;
  out.values_shed = daemon.bus().stats().values_shed;
  out.deferred = daemon.stats().value_epochs_deferred;
  out.collected = daemon.last_collected().size();
  const auto snap = registry.snapshot();
  if (auto it = snap.histograms.find("service.ingest_to_collected_seconds");
      it != snap.histograms.end())
    out.latency = it->second;
  // Ride the per-size service counters into the bench JSON telemetry.
  obs::publish_labeled(snap, "n" + std::to_string(nodes),
                       obs::Registry::global());
  return out;
}

}  // namespace
}  // namespace remo::bench

int main(int argc, char** argv) {
  remo::bench::init("service", argc, argv);
  using namespace remo::bench;
  banner("Service", "daemon ingest replay over streamapp traffic");

  const std::vector<std::size_t> sizes{80, 160, 320};

  subbanner("service ingest replay (keep-up: no budget, bit-identity on)");
  {
    std::vector<ReplayResult> results;
    results.reserve(sizes.size());
    for (std::size_t n : sizes) results.push_back(run_replay(n, 0, true));

    remo::Table t({"nodes", "epochs", "values", "replans", "us/value",
                   "steady us/value", "values/sec", "p50 <= (epochs)",
                   "p99 <= (epochs)", "collected", "identical"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const auto& r = results[i];
      t.row()
          .add(static_cast<long long>(sizes[i]))
          .add(static_cast<long long>(r.epochs))
          .add(static_cast<long long>(r.values_applied))
          .add(static_cast<long long>(r.replans))
          .add(r.ingest_seconds / static_cast<double>(r.values_applied) * 1e6,
               3)
          .add(r.steady_seconds / static_cast<double>(r.steady_values) * 1e6, 3)
          .add(static_cast<double>(r.values_applied) / r.ingest_seconds, 0)
          .add(quantile_upper_epochs(r.latency, 0.50), 0)
          .add(quantile_upper_epochs(r.latency, 0.99), 0)
          .add(static_cast<long long>(r.collected))
          .add(r.identical ? "yes" : "NO");
    }
    emit(t);
    std::printf(
        "(one value batch per node per epoch through the bus; the mirror\n"
        "applies identical churn to a batch-mode federation at the same\n"
        "virtual clock — `identical` pins the daemon's collected pairs to\n"
        "it at every epoch. `us/value` times every epoch, including the\n"
        "initial plan and each replan; `steady us/value` times only the\n"
        "epochs that planned nothing. Latency is virtual: a value applied\n"
        "and collected in its submission epoch scores <= 1 epoch)\n");
  }

  subbanner("overload replay (value budget at ~half load, low watermark)");
  {
    remo::Table t({"nodes", "offered", "applied", "shed", "deferred v*e",
                   "p50 <= (epochs)", "p99 <= (epochs)"});
    for (std::size_t n : sizes) {
      // Offered load is ~8 values per operator-hosting node per epoch;
      // budget half of it so the backlog grows and the watermark engages.
      const std::size_t budget = n * 4;
      const ReplayResult r = run_replay(n, budget, false);
      t.row()
          .add(static_cast<long long>(n))
          .add(static_cast<long long>(r.values_offered))
          .add(static_cast<long long>(r.values_applied))
          .add(static_cast<long long>(r.values_shed))
          .add(static_cast<long long>(r.deferred))
          .add(quantile_upper_epochs(r.latency, 0.50), 0)
          .add(quantile_upper_epochs(r.latency, 0.99), 0);
    }
    emit(t);
    std::printf(
        "(admission keeps the loss observable: every value is applied,\n"
        "queued (deferred, stretching the latency tail), or shed at the\n"
        "watermark and counted — never silently dropped)\n");
  }
  return 0;
}
