// Golden daemon runs: a seeded MonitoringDaemon at K ∈ {1, 2} shards with
// the recovery loop on and a wire sink, pinned to figures recorded from an
// earlier build. The property suites compare two code paths of one build;
// this suite pins the daemon's observable output across versions, so a
// speed-up of the ingest path that changes any byte fails here.
//
// Every node sends one value batch per epoch; a task is modified every few
// epochs; a burst every 7th epoch overruns the per-epoch value budget, so
// some values wait on the bus and the latency histogram sees more than one
// bucket; one node's producer goes silent long enough to be suspected and
// parked, then resumes and is recovered. Pinned per K: digests of the
// whole wire stream and of a final snapshot() image, the
// `service.ingest_to_collected_seconds` histogram, DaemonStats, the
// RepairReport and the on_detect event list. On a mismatch the test prints
// the new record; re-record only for an intended change of output. The same
// scenario with tighter collectors (4–7·n) pins no output, only that every
// epoch runs and leaves each shard's forest valid.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sorted_vector.h"
#include "obs/metrics.h"
#include "service/daemon.h"
#include "task/workload.h"

namespace remo::service {
namespace {

constexpr std::size_t kNodes = 32;
constexpr std::size_t kUniverse = 12;
constexpr std::uint64_t kEpochs = 48;
/// The silent producer and its outage window (inclusive).
constexpr NodeId kVictim = 5;
constexpr std::uint64_t kSilentFrom = 12;
constexpr std::uint64_t kSilentTo = 30;

/// FNV-1a over bytes.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(const std::uint8_t* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) byte(data[i]);
  }
};

struct Event {
  NodeId node = kNoNode;
  std::uint64_t epoch = 0;
  bool down = false;
  std::uint64_t lag = 0;
  friend bool operator==(const Event&, const Event&) = default;
};

struct Record {
  std::uint64_t stream = 0;   ///< FNV-1a of the whole wire stream
  std::uint64_t image = 0;    ///< FNV-1a of the final snapshot() image
  std::uint64_t latency = 0;  ///< histogram bucket counts, count, sum bits
  std::uint64_t latency_count = 0;
  std::array<std::uint64_t, 12> stats{};  ///< DaemonStats, declaration order
  std::array<std::uint64_t, 11> repair{};  ///< RepairReport, declaration order
  std::vector<Event> events;               ///< on_detect, in call order
};

std::ostream& operator<<(std::ostream& os, const Record& r) {
  os << std::hex << "{0x" << r.stream << "ULL, 0x" << r.image << "ULL, 0x"
     << r.latency << "ULL, " << std::dec << r.latency_count << ", {";
  for (std::size_t i = 0; i < r.stats.size(); ++i)
    os << (i ? ", " : "") << r.stats[i];
  os << "}, {";
  for (std::size_t i = 0; i < r.repair.size(); ++i)
    os << (i ? ", " : "") << r.repair[i];
  os << "}, {";
  for (std::size_t i = 0; i < r.events.size(); ++i)
    os << (i ? ", " : "") << "{" << r.events[i].node << ", "
       << r.events[i].epoch << ", " << (r.events[i].down ? "true" : "false")
       << ", " << r.events[i].lag << "}";
  return os << "}}";
}

SystemModel make_model(double collector_per_node) {
  SystemModel model(kNodes, 300.0, CostModel{10.0, 1.0});
  model.set_collector_capacity(collector_per_node * static_cast<double>(kNodes));
  Rng attr_rng{11};
  model.assign_random_attributes(kUniverse, 6, attr_rng);
  return model;
}

/// Runs the scenario with a collector of `collector_per_node`·n. With
/// `validate_forests`, each shard's forest must validate against its real
/// SystemModel after every epoch.
Record run_golden(std::size_t shards, double collector_per_node = 8.0,
                  bool validate_forests = false) {
  const SystemModel model = make_model(collector_per_node);
  Record out;

  DaemonOptions options;
  options.federation.num_shards = shards;
  MonitoringSystemOptions& shard = options.federation.shard;
  shard.planner.partition_scheme = PartitionScheme::kRemo;
  shard.planner.max_candidates = 4;
  shard.planner.max_iterations = 8;
  shard.recovery.enabled = true;
  shard.recovery.on_detect = [&out](const LivenessEvent& ev) {
    out.events.push_back(Event{ev.node, ev.epoch, ev.down, ev.lag});
  };
  obs::Registry service_metrics, federation_metrics;
  options.metrics = &service_metrics;
  options.federation.metrics = &federation_metrics;
  // Steady traffic is ~6 values per node; the budget leaves room for it
  // but not for a burst, which drains over the following epochs.
  options.max_values_per_epoch = 6 * kNodes + 16;
  Digest stream;
  options.sink = [&stream](const std::uint8_t* data, std::size_t size) {
    stream.bytes(data, size);
  };
  MonitoringDaemon daemon(model, options);

  // Task 1 watches the victim's first two attributes on every node and is
  // never modified, so the victim stays in the deployment throughout.
  MonitoringTask base;
  base.nodes = model.monitoring_nodes();
  base.attrs = {model.observable(kVictim)[0], model.observable(kVictim)[1]};
  sort_unique(base.attrs);
  EXPECT_TRUE(admitted(daemon.submit_add_task(base)));
  WorkloadGenerator gen(model, WorkloadConfig{.attr_universe = kUniverse}, 17);
  std::vector<MonitoringTask> tasks = gen.small_tasks(kNodes / 4);
  for (const MonitoringTask& t : tasks)
    EXPECT_TRUE(admitted(daemon.submit_add_task(t)));

  Rng traffic{23};
  for (std::uint64_t e = 1; e <= kEpochs; ++e) {
    for (NodeId node = 1; node <= kNodes; ++node) {
      if (node == kVictim && e >= kSilentFrom && e <= kSilentTo) continue;
      std::vector<ValueUpdate> batch;
      for (AttrId a : model.observable(node))
        batch.push_back(ValueUpdate{node, a, traffic.uniform(0.0, 100.0)});
      EXPECT_TRUE(admitted(daemon.submit_values(node, std::move(batch))));
    }
    // A relay batch interleaving two nodes, plus one value for a node
    // outside the universe (dropped as invalid at apply time).
    EXPECT_TRUE(admitted(daemon.submit_values(
        0, {ValueUpdate{1, model.observable(1)[0], traffic.uniform(0.0, 1.0)},
            ValueUpdate{2, model.observable(2)[0], traffic.uniform(0.0, 1.0)},
            ValueUpdate{1, model.observable(1)[1], traffic.uniform(0.0, 1.0)},
            ValueUpdate{kNodes + 1, 0, 1.0}})));
    if (e % 7 == 0) {
      std::vector<ValueUpdate> burst;
      for (NodeId node = 1; node <= kNodes; ++node)
        if (node != kVictim || e < kSilentFrom || e > kSilentTo)
          burst.push_back(ValueUpdate{node, model.observable(node).back(),
                                    traffic.uniform(100.0, 200.0)});
      EXPECT_TRUE(admitted(daemon.submit_values(0, std::move(burst))));
    }
    if (e % 4 == 0) {
      const std::size_t i = traffic.below(tasks.size());
      MonitoringTask next = tasks[i];
      next.attrs = {static_cast<AttrId>(traffic.below(kUniverse)),
                    static_cast<AttrId>(traffic.below(kUniverse))};
      sort_unique(next.attrs);
      tasks[i] = next;
      next.id = static_cast<TaskId>(2 + i);  // task 1 is the base task
      EXPECT_TRUE(admitted(daemon.submit_modify_task(std::move(next))));
    }
    daemon.run_epoch();
    for (std::size_t k = 0; validate_forests && k < shards; ++k) {
      MonitoringSystem& core = daemon.system().shard(k);
      EXPECT_TRUE(core.topology(static_cast<double>(e)).validate(core.system()))
          << "shard " << k << " at epoch " << e;
    }
  }

  out.stream = stream.h;
  Digest image;
  const std::vector<std::uint8_t> snap = daemon.snapshot();
  image.bytes(snap.data(), snap.size());
  out.image = image.h;

  if (obs::enabled()) {
    const auto hist = service_metrics.snapshot().histograms.at(
        "service.ingest_to_collected_seconds");
    Digest latency;
    for (std::uint64_t c : hist.counts) latency.add(c);
    latency.add(hist.count);
    latency.add(std::bit_cast<std::uint64_t>(hist.sum));
    out.latency = latency.h;
    out.latency_count = hist.count;
  }

  const DaemonStats& s = daemon.stats();
  out.stats = {s.epochs,           s.commands_applied, s.values_applied,
               s.values_invalid,   s.values_collected, s.value_epochs_deferred,
               s.tasks_added,      s.tasks_removed,    s.tasks_modified,
               s.replans_forced,   s.snapshots_taken,  s.pairs_emitted};
  const RepairReport r = daemon.system().repair_report();
  out.repair = {r.outages_detected, r.recoveries_detected, r.repair_passes,
                r.repair_messages,  r.orphans_reattached,  r.suspects_parked,
                r.members_dropped,  r.pairs_dropped,       r.replans_after_outage,
                r.detect_lag_sum,   r.repair_lag_sum};
  return out;
}

struct Golden {
  std::size_t shards;
  Record record;
};

// K=2 was recorded from the build before the daemon's per-node value
// rows, collected offsets and per-node deliveries. K=1 was re-recorded
// when the delta fast path stopped applying a task change's pairs on a
// planned-around suspect: the modify that lands at epoch 29 adds a pair on
// node 5 while it is still down and planned around. Every later build must
// reproduce them.
const Golden kGolden[] = {
    {1,
     {0xc942983c4ebf83bdULL, 0x134a4d6d4043e337ULL, 0xb952dee0292a4014ULL, 6703,
      {48, 1592, 9435, 48, 6703, 333, 9, 0, 12, 0, 0, 6547},
      {1, 1, 1, 110, 1, 2, 0, 0, 2, 6, 6},
      {{5, 18, true, 6}, {5, 31, false, 19}}}},
    {2,
     {0xd5ac26863876a547ULL, 0xec628f88bfd8f46eULL, 0x366c2f375fa84e25ULL, 6717,
      {48, 1592, 9435, 48, 6717, 333, 9, 0, 12, 0, 0, 6559},
      {1, 1, 1, 0, 0, 2, 0, 0, 2, 4, 4},
      {{5, 16, true, 4}, {5, 31, false, 19}}}},
};

TEST(DaemonGolden, RunsMatchRecordedOutput) {
  for (const Golden& g : kGolden) {
    const Record got = run_golden(g.shards);
    // The scenario is what it claims: the victim was suspected, parked and
    // recovered, and no member was dropped from the deployment.
    EXPECT_GE(got.repair[0], 1u) << "K=" << g.shards << ": no outage detected";
    EXPECT_GE(got.repair[1], 1u) << "K=" << g.shards << ": no recovery";
    EXPECT_GE(got.repair[5], 1u) << "K=" << g.shards << ": nothing parked";
    EXPECT_EQ(got.repair[6], 0u) << "K=" << g.shards << ": members dropped";
    EXPECT_GT(got.stats[5], 0u) << "K=" << g.shards << ": no value deferred";

    const Record& want = g.record;
    const bool same = got.stream == want.stream && got.image == want.image &&
                      (!obs::enabled() || (got.latency == want.latency &&
                                           got.latency_count ==
                                               want.latency_count)) &&
                      got.stats == want.stats && got.repair == want.repair &&
                      got.events == want.events;
    EXPECT_TRUE(same) << "K=" << g.shards << "\n  recorded: " << want
                      << "\n  got:      {" << g.shards << ", " << got << "},";
  }
}

// Repair and parking may spend the collector headroom the planning model
// holds back, so a later replan sees the forest's collector usage above the
// planning capacity. Tightening the collector reaches that state; replans
// must still hand every tree a budget of at least its usage, never throw
// out of run_epoch, and keep each shard's forest valid.
TEST(DaemonGolden, TightCollectorRunsNeverThrowAndStayValid) {
  for (const std::size_t shards : {1, 2}) {
    for (const double per_node : {4.0, 5.0, 6.0, 7.0}) {
      SCOPED_TRACE("K=" + std::to_string(shards) +
                   " collector=" + std::to_string(per_node) + "n");
      EXPECT_NO_THROW(run_golden(shards, per_node, /*validate_forests=*/true));
    }
  }
}

}  // namespace
}  // namespace remo::service
