#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <set>

#include "obs/metrics.h"
#include "planner/planner.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

struct Fixture {
  SystemModel system;
  PairSet pairs;

  Fixture(std::size_t n, std::size_t attrs, Capacity node_cap, Capacity coll_cap)
      : system(n, node_cap, kCost), pairs(n + 1) {
    system.set_collector_capacity(coll_cap);
    for (NodeId id = 1; id <= n; ++id) {
      std::vector<AttrId> a;
      for (AttrId x = 0; x < attrs; ++x) {
        a.push_back(x);
        pairs.add(id, x);
      }
      system.set_observable(id, a);
    }
  }

  Topology plan(PartitionScheme scheme = PartitionScheme::kRemo) {
    PlannerOptions o;
    o.partition_scheme = scheme;
    return Planner(system, o).plan(pairs);
  }
};

TEST(Simulator, FullDeliveryUnderAmpleCapacity) {
  Fixture f(10, 2, 1e6, 1e6);
  auto topo = f.plan();
  RandomWalkSource src(f.pairs, 1);
  SimConfig cfg;
  cfg.epochs = 60;
  cfg.warmup = 10;
  const auto report = simulate(f.system, topo, f.pairs, src, cfg);
  EXPECT_EQ(report.planned_pairs, f.pairs.total_pairs());
  EXPECT_NEAR(report.delivered_ratio, 1.0, 1e-9);
  EXPECT_EQ(report.values_dropped, 0u);
  EXPECT_GT(report.messages_sent, 0u);
}

TEST(Simulator, ErrorSmallWhenEverythingDelivered) {
  Fixture f(10, 2, 1e6, 1e6);
  auto topo = f.plan();
  // Slow walk: one-epoch staleness error stays tiny relative to values.
  RandomWalkSource src(f.pairs, 2, 100.0, 0.5);
  SimConfig cfg;
  cfg.epochs = 80;
  const auto report = simulate(f.system, topo, f.pairs, src, cfg);
  EXPECT_LT(report.avg_percent_error, 5.0);
}

TEST(Simulator, StaticValuesGiveZeroError) {
  Fixture f(8, 1, 1e6, 1e6);
  auto topo = f.plan();
  RandomWalkSource src(f.pairs, 3, 100.0, /*sigma=*/0.0);
  SimConfig cfg;
  cfg.epochs = 40;
  const auto report = simulate(f.system, topo, f.pairs, src, cfg);
  EXPECT_DOUBLE_EQ(report.avg_percent_error, 0.0);
  EXPECT_DOUBLE_EQ(report.p95_percent_error, 0.0);
}

TEST(Simulator, DeeperTreesAreStaler) {
  // Same workload, CHAIN vs STAR trees: deeper delivery pipelines must
  // produce at least as much staleness error (the Fig. 8 mechanism).
  Fixture f(25, 1, 1e6, 1e6);
  PlannerOptions star_opts, chain_opts;
  star_opts.partition_scheme = PartitionScheme::kOneSet;
  star_opts.tree.scheme = TreeScheme::kStar;
  chain_opts.partition_scheme = PartitionScheme::kOneSet;
  chain_opts.tree.scheme = TreeScheme::kChain;
  auto star = Planner(f.system, star_opts).plan(f.pairs);
  auto chain = Planner(f.system, chain_opts).plan(f.pairs);
  ASSERT_GT(chain.entries()[0].tree.height(), star.entries()[0].tree.height());

  SimConfig cfg;
  cfg.epochs = 120;
  cfg.warmup = 40;
  RandomWalkSource s1(f.pairs, 5, 100.0, 3.0);
  RandomWalkSource s2(f.pairs, 5, 100.0, 3.0);
  const auto star_report = simulate(f.system, star, f.pairs, s1, cfg);
  const auto chain_report = simulate(f.system, chain, f.pairs, s2, cfg);
  EXPECT_GT(chain_report.avg_percent_error, star_report.avg_percent_error);
}

TEST(Simulator, EveryChainMemberDelivers) {
  // A depth-6 chain relays every member's value through every node above
  // it; each member must still reach the collector.
  Fixture f(6, 1, 1e6, 1e9);
  PlannerOptions o;
  o.partition_scheme = PartitionScheme::kOneSet;
  o.tree.scheme = TreeScheme::kChain;
  const Topology topo = Planner(f.system, o).plan(f.pairs);
  ASSERT_GE(topo.entries()[0].tree.height(), 6u);

  std::set<NodeAttrPair> delivered;
  RandomWalkSource source(f.pairs, 3);
  SimConfig cfg;
  cfg.epochs = 30;
  cfg.on_delivery = [&delivered](NodeAttrPair pair, std::uint64_t, double) {
    delivered.insert(pair);
  };
  simulate(f.system, topo, f.pairs, source, cfg);

  for (NodeId n = 1; n <= 6; ++n)
    EXPECT_TRUE(delivered.contains({n, 0})) << n;
}

TEST(Simulator, UncoveredPairsRaiseError) {
  // Starve the system so planning covers only part of the pairs: the
  // uncovered remainder contributes growing error.
  Fixture tight(30, 3, 40.0, 80.0);
  Fixture ample(30, 3, 1e6, 1e6);
  auto tight_topo = tight.plan();
  auto ample_topo = ample.plan();
  ASSERT_LT(tight_topo.coverage(), 1.0);
  ASSERT_DOUBLE_EQ(ample_topo.coverage(), 1.0);

  SimConfig cfg;
  cfg.epochs = 100;
  RandomWalkSource s1(tight.pairs, 6, 100.0, 3.0);
  RandomWalkSource s2(ample.pairs, 6, 100.0, 3.0);
  const auto tight_report = simulate(tight.system, tight_topo, tight.pairs, s1, cfg);
  const auto ample_report = simulate(ample.system, ample_topo, ample.pairs, s2, cfg);
  EXPECT_GT(tight_report.avg_percent_error, ample_report.avg_percent_error);
}

TEST(Simulator, CapacityEnforcementDropsWhenOverloaded) {
  // Deploy a deliberately infeasible topology (planned with fake huge
  // capacities, simulated with tiny ones): drops must appear.
  Fixture planner_view(12, 3, 1e6, 1e6);
  auto topo = planner_view.plan(PartitionScheme::kOneSet);
  SystemModel starved = planner_view.system;
  for (NodeId n = 0; n <= 12; ++n) starved.set_capacity(n, 30.0);
  RandomWalkSource src(planner_view.pairs, 7);
  SimConfig cfg;
  cfg.epochs = 60;
  const auto report = simulate(starved, topo, planner_view.pairs, src, cfg);
  EXPECT_GT(report.values_dropped, 0u);
  EXPECT_LT(report.delivered_ratio, 1.0);
}

TEST(Simulator, EnforcementOffDeliversEverything) {
  Fixture planner_view(12, 3, 1e6, 1e6);
  auto topo = planner_view.plan(PartitionScheme::kOneSet);
  SystemModel starved = planner_view.system;
  for (NodeId n = 0; n <= 12; ++n) starved.set_capacity(n, 30.0);
  RandomWalkSource src(planner_view.pairs, 7);
  SimConfig cfg;
  cfg.epochs = 60;
  cfg.enforce_capacity = false;
  const auto report = simulate(starved, topo, planner_view.pairs, src, cfg);
  EXPECT_EQ(report.values_dropped, 0u);
  EXPECT_NEAR(report.delivered_ratio, 1.0, 1e-9);
}

TEST(Simulator, UtilizationBoundedByCapacityWhenEnforced) {
  Fixture f(20, 2, 60.0, 200.0);
  auto topo = f.plan();
  RandomWalkSource src(f.pairs, 8);
  SimConfig cfg;
  cfg.epochs = 50;
  const auto report = simulate(f.system, topo, f.pairs, src, cfg);
  EXPECT_LE(report.max_node_utilization, 1.0 + 1e-6);
  EXPECT_LE(report.collector_utilization, 1.0 + 1e-6);
  EXPECT_GT(report.avg_node_utilization, 0.0);
}

TEST(Simulator, FrequencyWeightsReduceTraffic) {
  Fixture f(10, 2, 1e6, 1e6);
  // Plan with attr 1 at quarter rate.
  PlannerOptions o;
  o.attr_specs.set_weight(1, 0.25);
  auto slow_topo = Planner(f.system, o).plan(f.pairs);
  auto fast_topo = f.plan(PartitionScheme::kRemo);
  RandomWalkSource s1(f.pairs, 9);
  RandomWalkSource s2(f.pairs, 9);
  SimConfig cfg;
  cfg.epochs = 80;
  const auto slow = simulate(f.system, slow_topo, f.pairs, s1, cfg);
  const auto fast = simulate(f.system, fast_topo, f.pairs, s2, cfg);
  EXPECT_LT(slow.values_sent, fast.values_sent);
}

TEST(Simulator, PartialTrimRebuffersUnsentRelays) {
  // Regression: when capacity trims a payload to 0 < fit < size, the
  // unsent relayed values must be re-buffered for the next epoch (as the
  // fit == 0 path already does), not silently dropped.
  //
  // Chain collector <- A(1) <- B(2) <- C(3). A observes attr 0 at weight
  // 0.5 (sends on even epochs); C observes attr 1 at weight 1e-6 (sends
  // only at epoch 0). Collector capacity 11.5 lets A send exactly one
  // value per message. C's single value reaches A's buffer at epoch 1; at
  // epoch 2 A's payload is [A-local, C-relay], trims to 1, and the relay
  // must survive to be delivered at epoch 3.
  const std::size_t n = 3;
  SystemModel system(n, 100.0, kCost);
  system.set_collector_capacity(11.5);
  system.set_observable(1, {0});
  system.set_observable(3, {1});
  PairSet pairs(n + 1);
  pairs.add(1, 0);
  pairs.add(3, 1);

  MonitoringTree tree({{0, FunnelSpec{AggType::kHolistic}, 0.5},
                       {1, FunnelSpec{AggType::kHolistic}, 1e-6}},
                      /*collector_avail=*/1e9, kCost);
  tree.attach(BuildItem{1, {1, 0}, 1e9}, kCollectorId);
  tree.attach(BuildItem{2, {0, 0}, 1e9}, 1);
  tree.attach(BuildItem{3, {0, 1}, 1e9}, 2);
  Topology topo;
  topo.mutable_entries().push_back(
      TreeEntry{{0, 1}, std::move(tree), 2, 2});
  topo.set_total_pairs(2);

  RandomWalkSource src(pairs, 11, 100.0, /*sigma=*/0.0);
  SimConfig cfg;
  cfg.epochs = 10;
  cfg.warmup = 0;
  std::vector<std::uint64_t> c_arrivals;
  cfg.on_delivery = [&](NodeAttrPair p, std::uint64_t e, double) {
    if (p.node == 3) c_arrivals.push_back(e);
  };
  const auto report = simulate(system, topo, pairs, src, cfg);
  // C's one value is trimmed at epoch 2 but must arrive at epoch 3 when
  // A has no local value competing for the slot.
  ASSERT_EQ(c_arrivals.size(), 1u);
  EXPECT_EQ(c_arrivals[0], 3u);
  EXPECT_EQ(report.values_dropped, 0u);
}

TEST(Simulator, DeliveredRatioRespectsSendPeriods) {
  // Regression: the delivered_ratio denominator must scale expected
  // deliveries by each attribute's send period. A healthy period-4
  // deployment delivers every value it schedules — ratio 1.0, not 0.25.
  Fixture f(4, 1, 1e6, 1e6);
  PlannerOptions o;
  o.partition_scheme = PartitionScheme::kOneSet;
  o.tree.scheme = TreeScheme::kStar;
  o.attr_specs.set_weight(0, 0.25);  // period 4
  auto topo = Planner(f.system, o).plan(f.pairs);
  RandomWalkSource src(f.pairs, 12);
  SimConfig cfg;
  cfg.epochs = 84;
  cfg.warmup = 4;
  const auto report = simulate(f.system, topo, f.pairs, src, cfg);
  EXPECT_GT(report.values_sent, 0u);
  EXPECT_NEAR(report.delivered_ratio, 1.0, 0.05);
}

TEST(Simulator, EmptyTopologyReportsFullErrorNoTraffic) {
  Fixture f(5, 1, 1e6, 1e6);
  Topology empty;
  empty.set_total_pairs(f.pairs.total_pairs());
  RandomWalkSource src(f.pairs, 10);
  SimConfig cfg;
  cfg.epochs = 30;
  const auto report = simulate(f.system, empty, f.pairs, src, cfg);
  EXPECT_EQ(report.messages_sent, 0u);
  EXPECT_EQ(report.planned_pairs, 0u);
  EXPECT_GT(report.avg_percent_error, 0.0);
}

TEST(Simulator, BackpressureRebuffersRelaysAndMirrorsMetrics) {
  // Plan a deep chain under ample capacity, then simulate it on a
  // squeezed system: relays no longer fit each epoch, so they must be
  // deferred (store half of store-and-forward), not silently lost. The
  // run also publishes sim.* into an injected registry; the mirrors
  // must equal the SimReport exactly.
  Fixture ample(12, 1, 1e6, 1e6);
  PlannerOptions chain_opts;
  chain_opts.partition_scheme = PartitionScheme::kOneSet;
  chain_opts.tree.scheme = TreeScheme::kChain;
  auto topo = Planner(ample.system, chain_opts).plan(ample.pairs);
  ASSERT_GT(topo.entries()[0].tree.height(), 4u);

  // Room for a message of ~2 values per endpoint per epoch (C=10, a=1):
  // mid-chain nodes accumulate relays they can't flush.
  Fixture tight(12, 1, 26.0, 60.0);
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Registry registry;
  RandomWalkSource src(ample.pairs, 7);
  SimConfig cfg;
  cfg.epochs = 50;
  cfg.warmup = 10;
  cfg.metrics = &registry;
  const auto report = simulate(tight.system, topo, ample.pairs, src, cfg);
  obs::set_enabled(was_enabled);

  EXPECT_GT(report.values_rebuffered, 0u);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("sim.epochs"), cfg.epochs);
  EXPECT_EQ(snap.counters.at("sim.messages_sent"), report.messages_sent);
  EXPECT_EQ(snap.counters.at("sim.values_dropped"), report.values_dropped);
  EXPECT_EQ(snap.counters.at("sim.values_rebuffered"),
            report.values_rebuffered);
  EXPECT_EQ(snap.histograms.at("sim.deliveries_per_epoch").count, cfg.epochs);
}

}  // namespace
}  // namespace remo
