// MonitoringDaemon properties (DESIGN.md §14, `ctest -L service`):
//   - 20 seeded command sequences × K ∈ {1, 4} shards: daemon mode is
//     bit-identical to batch mode — the same commands applied directly to
//     a FederatedMonitoringSystem at the same virtual clock values yield
//     the same collected pairs, status roll-up, and forest digraphs; with
//     the recovery loop on, also the same RepairReport while one node's
//     producer falls silent and resumes;
//   - a daemon killed (snapshotted) and restored mid-run continues
//     bit-identically (collected pairs, forests, counters), and
//     snapshot ∘ restore is the identity on images;
//   - backpressure is accounted, never silent: deferral under the
//     per-epoch value budget, shedding at the watermark, token-bucket
//     rate limits, all mirrored in DaemonStats / BusStats / `service.*`
//     metrics;
//   - the wire stream round-trips the per-epoch collected values.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sorted_vector.h"
#include "federation/federated_system.h"
#include "obs/metrics.h"
#include "service/daemon.h"
#include "service/wire.h"
#include "task/workload.h"

namespace remo::service {
namespace {

const CostModel kCost{10.0, 1.0};

PlannerOptions quick_options() {
  PlannerOptions o;
  o.partition_scheme = PartitionScheme::kRemo;
  o.max_candidates = 4;
  o.max_iterations = 8;
  return o;
}

SystemModel make_model(std::size_t n, std::size_t universe,
                       std::uint64_t seed) {
  SystemModel model(n, 300.0, kCost);
  model.set_collector_capacity(16.0 * static_cast<double>(n));
  Rng attr_rng{seed};
  model.assign_random_attributes(universe, 6, attr_rng);
  return model;
}

federation::FederationOptions fed_options(std::size_t shards,
                                          obs::Registry* registry) {
  federation::FederationOptions o;
  o.num_shards = shards;
  o.metrics = registry;
  o.shard.planner = quick_options();
  return o;
}

/// One epoch's scripted traffic, applied identically to the daemon (via
/// the bus) and to the batch mirror (directly).
struct EpochScript {
  std::vector<ValueUpdate> values;
  std::vector<MonitoringTask> modifies;  ///< id = live task id
  std::vector<TaskId> removes;
  std::vector<MonitoringTask> adds;  ///< id = 0 (assigned at apply)
};

EpochScript make_script(Rng& churn, std::vector<MonitoringTask>& tasks,
                        std::vector<TaskId>& ids, TaskId& next_id,
                        std::size_t num_nodes, std::size_t universe,
                        std::uint64_t epoch, WorkloadGenerator& gen) {
  EpochScript script;
  for (int i = 0; i < 4; ++i)
    script.values.push_back(ValueUpdate{
        static_cast<NodeId>(1 + churn.below(num_nodes)),
        static_cast<AttrId>(churn.below(universe)), churn.uniform(0.0, 100.0)});

  if (churn.bernoulli(0.6) && !tasks.empty()) {
    const std::size_t i = churn.below(tasks.size());
    MonitoringTask next = tasks[i];
    next.attrs.clear();
    next.attrs.push_back(static_cast<AttrId>(churn.below(universe)));
    next.attrs.push_back(static_cast<AttrId>(churn.below(universe)));
    sort_unique(next.attrs);
    tasks[i] = next;
    next.id = ids[i];
    script.modifies.push_back(std::move(next));
  }
  if (epoch % 4 == 0 && tasks.size() > 2) {
    const std::size_t i = churn.below(tasks.size());
    script.removes.push_back(ids[i]);
    tasks.erase(tasks.begin() + static_cast<std::ptrdiff_t>(i));
    ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(i));

    MonitoringTask fresh = gen.small_tasks(1).front();
    fresh.id = 0;
    script.adds.push_back(fresh);
    tasks.push_back(std::move(fresh));
    ids.push_back(next_id++);
  }
  return script;
}

void expect_same_report(const RepairReport& a, const RepairReport& b,
                        const std::string& context) {
  EXPECT_EQ(a.outages_detected, b.outages_detected) << context;
  EXPECT_EQ(a.recoveries_detected, b.recoveries_detected) << context;
  EXPECT_EQ(a.repair_passes, b.repair_passes) << context;
  EXPECT_EQ(a.repair_messages, b.repair_messages) << context;
  EXPECT_EQ(a.orphans_reattached, b.orphans_reattached) << context;
  EXPECT_EQ(a.suspects_parked, b.suspects_parked) << context;
  EXPECT_EQ(a.members_dropped, b.members_dropped) << context;
  EXPECT_EQ(a.pairs_dropped, b.pairs_dropped) << context;
  EXPECT_EQ(a.replans_after_outage, b.replans_after_outage) << context;
  EXPECT_EQ(a.detect_lag_sum, b.detect_lag_sum) << context;
  EXPECT_EQ(a.repair_lag_sum, b.repair_lag_sum) << context;
}

// Recovery off: four random values per epoch from one producer. Recovery
// on: every node sends one batch of its observable attributes per epoch,
// and one collected node's producer is silent over epochs 3..12 — long
// enough to be suspected, repaired around and recovered. The daemon then
// delivers once per node run while the mirror calls on_delivery per value.
TEST(DaemonProperty, BitIdenticalToBatchModeAcrossSeedsAndShards) {
  using Case = std::pair<bool, std::size_t>;  // (recovery, shards)
  std::size_t outages = 0, recoveries = 0;
  for (const auto& [recovery, shards] : {Case{false, 1}, Case{false, 4},
                                         Case{true, 1}, Case{true, 4}}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const std::size_t n = 24 + (seed % 5) * 8;
      const std::size_t universe = 16 + (seed % 3) * 4;
      const SystemModel model = make_model(n, universe, seed);
      const std::string context = "K=" + std::to_string(shards) +
                                  " seed=" + std::to_string(seed) +
                                  (recovery ? " recovery" : "");

      obs::Registry reg_daemon, reg_batch;
      DaemonOptions options;
      options.federation = fed_options(shards, nullptr);
      options.federation.shard.recovery.enabled = recovery;
      options.metrics = &reg_daemon;
      MonitoringDaemon daemon(model, options);
      federation::FederationOptions batch_options =
          fed_options(shards, &reg_batch);
      batch_options.shard.recovery.enabled = recovery;
      federation::FederatedMonitoringSystem batch(model, batch_options);

      WorkloadGenerator gen(model, WorkloadConfig{.attr_universe = universe},
                            seed * 31);
      std::vector<MonitoringTask> tasks = gen.small_tasks(n / 4);
      std::vector<TaskId> ids;
      TaskId next_id = 1;
      for (const auto& t : tasks) {
        ASSERT_TRUE(admitted(daemon.submit_add_task(t)));
        MonitoringTask copy = t;
        copy.id = 0;
        const TaskId id = batch.add_task(std::move(copy));
        EXPECT_EQ(id, next_id);  // FIFO apply order ⇒ deterministic ids
        ids.push_back(id);
        ++next_id;
      }

      Rng churn{seed * 977};
      Rng traffic{seed * 389};
      const std::uint64_t epochs = recovery ? 24 : 8;
      NodeId silent = kNoNode;
      std::uint64_t values_sent = 0;
      for (std::uint64_t e = 1; e <= epochs; ++e) {
        const EpochScript script = make_script(churn, tasks, ids, next_id, n,
                                               universe, e, gen);
        std::vector<std::vector<ValueUpdate>> batches;
        if (!recovery) batches.push_back(script.values);
        for (NodeId node = 1; recovery && node <= n; ++node) {
          if (node == silent && e >= 3 && e <= 12) continue;
          auto& values = batches.emplace_back();
          for (AttrId a : model.observable(node))
            values.push_back(ValueUpdate{node, a, traffic.uniform(0.0, 100.0)});
        }
        // Daemon side: everything rides the bus, applied at the next tick.
        for (const auto& values : batches) {
          ASSERT_TRUE(admitted(daemon.submit_values(0, values)));
          values_sent += values.size();
        }
        for (const auto& m : script.modifies)
          ASSERT_TRUE(admitted(daemon.submit_modify_task(m)));
        for (TaskId id : script.removes)
          ASSERT_TRUE(admitted(daemon.submit_remove_task(id)));
        for (const auto& a : script.adds)
          ASSERT_TRUE(admitted(daemon.submit_add_task(a)));
        daemon.run_epoch();

        // Batch mirror: same commands, same order, same clock.
        for (const auto& values : batches)
          for (const ValueUpdate& v : values)
            batch.on_delivery(NodeAttrPair{v.node, v.attr}, e);
        for (const auto& m : script.modifies)
          ASSERT_TRUE(batch.modify_task(m));
        for (TaskId id : script.removes) ASSERT_TRUE(batch.remove_task(id));
        for (const auto& a : script.adds)
          EXPECT_EQ(batch.add_task(a), ids.back());
        batch.end_epoch(e);

        const double now = static_cast<double>(e);
        EXPECT_EQ(daemon.last_collected(), batch.collected_pairs(now))
            << context << " epoch=" << e;
        const auto ds = daemon.last_status();
        const auto bs = batch.status(now);
        EXPECT_EQ(ds.tasks, bs.tasks) << context;
        EXPECT_EQ(ds.pairs, bs.pairs) << context;
        EXPECT_EQ(ds.collected, bs.collected) << context;
        EXPECT_EQ(ds.coverage, bs.coverage) << context;
        EXPECT_EQ(ds.message_volume, bs.message_volume) << context;
        if (recovery) {
          expect_same_report(daemon.system().repair_report(),
                             batch.repair_report(),
                             context + " epoch=" + std::to_string(e));
          EXPECT_EQ(daemon.system().export_dot(now), batch.export_dot(now))
              << context << " epoch=" << e;
          const auto& pairs = daemon.last_collected();
          if (e == 1 && !pairs.empty()) silent = pairs[pairs.size() / 2].node;
        }
      }
      // The deployed forests themselves are byte-equal.
      const double end = static_cast<double>(epochs);
      EXPECT_EQ(daemon.system().export_dot(end), batch.export_dot(end))
          << context;
      EXPECT_EQ(daemon.stats().values_applied, values_sent) << context;
      if (!recovery) {
        EXPECT_EQ(values_sent, 8u * 4u);
      }
      outages += daemon.system().repair_report().outages_detected;
      recoveries += daemon.system().repair_report().recoveries_detected;
    }
  }
  // The recovery-on input exercised the liveness loop.
  EXPECT_GT(outages, 0u);
  EXPECT_GT(recoveries, 0u);
}

TEST(DaemonSnapshot, RestoredDaemonContinuesBitIdentically) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::size_t n = 24;
    const std::size_t universe = 12;
    const SystemModel model = make_model(n, universe, seed);

    DaemonOptions options;
    options.federation = fed_options(2, nullptr);
    obs::Registry reg_a, reg_b;
    options.metrics = &reg_a;
    MonitoringDaemon a(model, options);
    a.bus().set_producer_limits(1, ProducerLimits{.rate = 100.0, .burst = 200.0});

    WorkloadGenerator gen_a(model, WorkloadConfig{.attr_universe = universe},
                            seed * 7);
    std::vector<MonitoringTask> tasks = gen_a.small_tasks(6);
    std::vector<TaskId> ids;
    TaskId next_id = 1;
    for (const auto& t : tasks) {
      ASSERT_TRUE(admitted(a.submit_add_task(t)));
      ids.push_back(next_id++);
    }

    Rng churn{seed * 977};
    WorkloadGenerator gen_fresh(model,
                                WorkloadConfig{.attr_universe = universe},
                                seed * 13);
    for (std::uint64_t e = 1; e <= 5; ++e) {
      const EpochScript s = make_script(churn, tasks, ids, next_id, n,
                                        universe, e, gen_fresh);
      ASSERT_TRUE(admitted(a.submit_values(1, s.values)));
      for (const auto& m : s.modifies)
        ASSERT_TRUE(admitted(a.submit_modify_task(m)));
      for (TaskId id : s.removes)
        ASSERT_TRUE(admitted(a.submit_remove_task(id)));
      for (const auto& t : s.adds) ASSERT_TRUE(admitted(a.submit_add_task(t)));
      a.run_epoch();
    }

    // The kSnapshot control path: handled after the epoch's drain + emit,
    // so the image is a clean epoch boundary.
    ASSERT_TRUE(admitted(a.submit_control(ControlKind::kSnapshot)));
    a.run_epoch();
    ASSERT_FALSE(a.last_snapshot().empty());
    EXPECT_EQ(a.stats().snapshots_taken, 1u);

    // Leave traffic *in flight* on the bus before capturing: the image
    // must carry the queued commands and the producer's token bucket, or
    // the restored daemon would diverge at its very next tick.
    ASSERT_TRUE(admitted(a.submit_values(
        1, {ValueUpdate{1, 0, 42.0}, ValueUpdate{2, 1, 7.0}})));
    const std::vector<std::uint8_t> image = a.snapshot();

    options.metrics = &reg_b;
    MonitoringDaemon b(model, options);
    b.restore(image);

    EXPECT_EQ(b.epoch(), a.epoch());
    EXPECT_EQ(b.now(), a.now());
    EXPECT_EQ(b.stats().values_applied, a.stats().values_applied);
    EXPECT_EQ(b.stats().tasks_added, a.stats().tasks_added);
    EXPECT_EQ(b.bus().queued_values(), 2u);  // the in-flight batch survived

    // Continue both with identical traffic; every observable stays equal.
    const std::uint64_t resume = a.epoch();
    for (std::uint64_t e = resume + 1; e <= resume + 6; ++e) {
      const EpochScript s = make_script(churn, tasks, ids, next_id, n,
                                        universe, e, gen_fresh);
      for (MonitoringDaemon* d : {&a, &b}) {
        ASSERT_TRUE(admitted(d->submit_values(1, s.values)));
        for (const auto& m : s.modifies)
          ASSERT_TRUE(admitted(d->submit_modify_task(m)));
        for (TaskId id : s.removes)
          ASSERT_TRUE(admitted(d->submit_remove_task(id)));
        for (const auto& t : s.adds)
          ASSERT_TRUE(admitted(d->submit_add_task(t)));
      }
      a.run_epoch();
      b.run_epoch();
      EXPECT_EQ(a.last_collected(), b.last_collected())
          << "seed=" << seed << " epoch=" << e;
      EXPECT_EQ(a.last_status().message_volume, b.last_status().message_volume)
          << "seed=" << seed << " epoch=" << e;
      EXPECT_EQ(a.stats().values_applied, b.stats().values_applied);
      EXPECT_EQ(a.stats().tasks_modified, b.stats().tasks_modified);
    }
    EXPECT_EQ(a.system().export_dot(a.now()), b.system().export_dot(b.now()))
        << "seed=" << seed;
    // The strongest equivalence: both daemons produce byte-identical
    // snapshot images after the shared continuation.
    // Every deterministic piece of planner state converged. (The one
    // field left out is the replan-cost EWMA: it averages *measured wall
    // time* of past replans — the deliberate nondeterminism of the Sec
    // 4.2 cost model — so two processes never agree on it byte-for-byte.)
    for (std::size_t k = 0; k < a.system().num_shards(); ++k) {
      auto pa = a.system().shard(k).planner_state(a.now());
      auto pb = b.system().shard(k).planner_state(b.now());
      EXPECT_TRUE(pa.adjustment_stamps == pb.adjustment_stamps)
          << "seed=" << seed << " shard " << k;
      EXPECT_EQ(pa.init_time, pb.init_time) << "shard " << k;
      EXPECT_EQ(pa.constraint_signature, pb.constraint_signature)
          << "shard " << k;
      const auto ca = a.system().shard(k).adaptation_counters();
      const auto cb = b.system().shard(k).adaptation_counters();
      EXPECT_EQ(ca.adaptations, cb.adaptations) << "shard " << k;
      EXPECT_EQ(ca.adaptation_messages, cb.adaptation_messages)
          << "shard " << k;
      EXPECT_EQ(ca.delta_applies, cb.delta_applies) << "shard " << k;
    }
    // snapshot ∘ restore is the identity on images: re-capturing right
    // after a restore reproduces the image byte-for-byte.
    const std::vector<std::uint8_t> final_image = a.snapshot();
    b.restore(final_image);
    EXPECT_EQ(b.snapshot(), final_image) << "seed=" << seed;
  }
}

TEST(DaemonBackpressure, DeferralUnderTheValueBudgetIsAccounted) {
  const SystemModel model = make_model(16, 8, 3);
  DaemonOptions options;
  options.federation = fed_options(1, nullptr);
  options.max_values_per_epoch = 2;
  obs::Registry registry;
  options.metrics = &registry;
  MonitoringDaemon daemon(model, options);

  MonitoringTask task;
  task.nodes = {1, 2, 3};
  task.attrs = model.observable(1);
  ASSERT_TRUE(admitted(daemon.submit_add_task(task)));
  daemon.run_epoch();

  // Five single-value commands: the budget admits 2 per epoch, the rest
  // wait on the bus — deferral, not shedding.
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(admitted(daemon.submit_values(
        0, {ValueUpdate{static_cast<NodeId>(1 + i % 3), 0,
                        static_cast<double>(i)}})));
  daemon.run_epoch();
  EXPECT_EQ(daemon.stats().values_applied, 2u);
  EXPECT_EQ(daemon.bus().queued_values(), 3u);
  daemon.run_epoch();
  EXPECT_EQ(daemon.stats().values_applied, 4u);
  daemon.run_epoch();
  EXPECT_EQ(daemon.stats().values_applied, 5u);
  EXPECT_EQ(daemon.bus().queued_values(), 0u);
  // Σ queued-at-epoch-end: 3 after the first tick, 1 after the second.
  EXPECT_EQ(daemon.stats().value_epochs_deferred, 4u);
  EXPECT_EQ(daemon.bus().stats().values_shed, 0u);

  // The `service.*` mirrors saw the same story.
  if (obs::enabled()) {
    const auto snap = registry.snapshot();
    ASSERT_TRUE(snap.counters.contains("service.values_applied"));
    EXPECT_EQ(snap.counters.at("service.values_applied"), 5u);
    ASSERT_TRUE(
        snap.histograms.contains("service.ingest_to_collected_seconds"));
  }
}

TEST(DaemonBackpressure, SheddingAndRateLimitsSurfaceToProducers) {
  const SystemModel model = make_model(16, 8, 3);
  DaemonOptions options;
  options.federation = fed_options(1, nullptr);
  options.bus = BusOptions{.capacity = 4, .shed_watermark = 2};
  obs::Registry registry;
  options.metrics = &registry;
  MonitoringDaemon daemon(model, options);

  // Two batches fill the watermark; the third is shed, visible to the
  // producer and in the stats, and never applied.
  EXPECT_TRUE(admitted(daemon.submit_values(0, {ValueUpdate{1, 0, 1.0}})));
  EXPECT_TRUE(admitted(daemon.submit_values(0, {ValueUpdate{2, 0, 2.0}})));
  EXPECT_EQ(daemon.submit_values(0, {ValueUpdate{3, 0, 3.0}}),
            Admission::kShedBackpressure);
  // Churn still flows above the watermark.
  MonitoringTask task;
  task.nodes = {1, 2};
  task.attrs = model.observable(1);
  EXPECT_TRUE(admitted(daemon.submit_add_task(task)));

  daemon.run_epoch();
  EXPECT_EQ(daemon.stats().values_applied, 2u);
  EXPECT_EQ(daemon.value_of(NodeAttrPair{3, 0}), 0.0);
  EXPECT_EQ(daemon.bus().stats().shed_backpressure, 1u);
  EXPECT_EQ(daemon.bus().stats().values_shed, 1u);

  // Per-producer token bucket, on the daemon's virtual clock.
  daemon.bus().set_producer_limits(9, ProducerLimits{.rate = 1.0, .burst = 1.0});
  EXPECT_TRUE(admitted(daemon.submit_values(9, {ValueUpdate{1, 1, 1.0}})));
  EXPECT_EQ(daemon.submit_values(9, {ValueUpdate{1, 2, 2.0}}),
            Admission::kShedRateLimit);
  daemon.run_epoch();  // advances the virtual clock by one epoch
  EXPECT_TRUE(admitted(daemon.submit_values(9, {ValueUpdate{1, 2, 2.0}})));

  // The `service.values_shed` gauge mirrors the bus total: 1
  // backpressure-shed value + 1 rate-limited value by the time the second
  // epoch emitted.
  if (obs::enabled()) {
    const auto snap = registry.snapshot();
    ASSERT_TRUE(snap.gauges.contains("service.values_shed"));
    EXPECT_DOUBLE_EQ(snap.gauges.at("service.values_shed"), 2.0);
  }

  // Both exporters carry the admission story.
  const std::string json = daemon.summary_json();
  EXPECT_NE(json.find("\"shed_backpressure\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shed_rate_limit\":1"), std::string::npos) << json;
  const std::string series = daemon.time_series_text();
  EXPECT_EQ(series.compare(0, 6, "#epoch"), 0);
}

TEST(DaemonWire, StreamRoundTripsCollectedValues) {
  const SystemModel model = make_model(16, 8, 5);
  DaemonOptions options;
  options.federation = fed_options(1, nullptr);
  std::vector<std::uint8_t> stream;
  options.sink = [&stream](const std::uint8_t* data, std::size_t size) {
    stream.insert(stream.end(), data, data + size);
  };
  obs::Registry registry;
  options.metrics = &registry;
  MonitoringDaemon daemon(model, options);

  MonitoringTask task;
  task.nodes = model.monitoring_nodes();
  task.attrs = model.observable(1);
  ASSERT_TRUE(admitted(daemon.submit_add_task(task)));
  for (std::uint64_t e = 1; e <= 3; ++e) {
    ASSERT_TRUE(admitted(daemon.submit_values(
        0, {ValueUpdate{1, task.attrs.front(), static_cast<double>(e)}})));
    daemon.run_epoch();
  }

  wire::Reader r(stream);
  ASSERT_TRUE(wire::read_stream_header(r));
  wire::Record rec;
  std::uint64_t records = 0;
  wire::EpochPairsRecord last;
  while (wire::next_record(r, rec)) {
    ASSERT_EQ(rec.type, wire::RecordType::kEpochPairs);
    ASSERT_TRUE(wire::decode_epoch_pairs(rec.payload, rec.size, last));
    ++records;
    EXPECT_EQ(last.epoch, records);
  }
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(records, 3u);
  EXPECT_EQ(last.values_applied, 1u);
  ASSERT_EQ(last.pairs.size(), daemon.last_collected().size());
  for (std::size_t i = 0; i < last.pairs.size(); ++i) {
    const NodeAttrPair p{last.pairs[i].node, last.pairs[i].attr};
    EXPECT_EQ(p, daemon.last_collected()[i]);
    EXPECT_EQ(last.pairs[i].value, daemon.value_of(p));
  }
  // The freshest ingested value for (1, attr) made it to the wire.
  EXPECT_EQ(daemon.value_of(NodeAttrPair{1, task.attrs.front()}), 3.0);
  EXPECT_EQ(daemon.stats().pairs_emitted,
            static_cast<std::uint64_t>(daemon.last_collected().size()) * 3u);
}

}  // namespace
}  // namespace remo::service
