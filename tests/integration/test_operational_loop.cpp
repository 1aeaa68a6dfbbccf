// The full operational loop a deployment would run: the MonitoringSystem
// facade plans, the simulator delivers against the live topology, tasks
// churn, the topology adapts — and every cross-component invariant holds
// across rounds.
#include <gtest/gtest.h>

#include <set>

#include "core/monitoring_system.h"
#include "sim/simulator.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

SystemModel make_system() {
  SystemModel s(24, 150.0, kCost);
  s.set_collector_capacity(900.0);
  for (NodeId n = 1; n <= 24; ++n) s.set_observable(n, {0, 1, 2, 3});
  return s;
}

MonitoringTask task(std::vector<AttrId> attrs, std::vector<NodeId> nodes) {
  MonitoringTask t;
  t.attrs = std::move(attrs);
  t.nodes = std::move(nodes);
  return t;
}

TEST(OperationalLoop, PlanDeliverAdaptRounds) {
  MonitoringSystem service(make_system());
  std::vector<NodeId> all;
  for (NodeId n = 1; n <= 24; ++n) all.push_back(n);
  const TaskId base_task = service.add_task(task({0, 1}, all));

  std::size_t deliveries = 0;
  double now = 0.0;
  for (int round = 0; round < 4; ++round) {
    // 1. Current topology (adaptively replanned if tasks changed).
    const Topology& topo = service.topology(now);
    ASSERT_TRUE(topo.validate(service.system())) << "round " << round;

    // 2. Deliver 30 epochs against it, recording what reaches the collector.
    const PairSet pairs =
        service.tasks().dedup(service.system().num_vertices());
    RandomWalkSource source(pairs, 100 + round);
    std::set<NodeAttrPair> delivered;
    SimConfig sim;
    sim.epochs = 30;
    sim.warmup = 5;
    sim.on_delivery = [&](NodeAttrPair p, std::uint64_t, double) {
      delivered.insert(p);
      ++deliveries;
    };
    const auto report = simulate(service.system(), topo, pairs, source, sim);
    EXPECT_GT(report.delivered_ratio, 0.95) << "round " << round;

    // 3. Every pair the plan collects was delivered this round.
    const auto status = service.status(now);
    EXPECT_EQ(status.collected, topo.collected_pairs());
    for (const auto& entry : topo.entries()) {
      for (NodeId n : entry.tree.members()) {
        const auto& local = entry.tree.local_counts(n);
        for (std::size_t m = 0; m < entry.attrs.size(); ++m) {
          if (local[m] == 0) continue;
          EXPECT_TRUE(delivered.contains({n, entry.attrs[m]}))
              << "round " << round;
        }
      }
    }

    // 4. Churn: add a new per-round task, and on round 2 widen the base.
    now += 40.0;
    service.add_task(task({static_cast<AttrId>(2 + round % 2)},
                          {static_cast<NodeId>(1 + round * 5),
                           static_cast<NodeId>(2 + round * 5)}));
    if (round == 2) {
      MonitoringTask widened = task({0, 1, 3}, all);
      widened.id = base_task;
      ASSERT_TRUE(service.modify_task(widened));
    }
  }

  // Note: the rounds above may legitimately count ZERO adaptation messages
  // — new attributes merged into existing trees ride the links that are
  // already up (the multiset of (child, parent) connections is unchanged).
  // Force a genuine rewire: a replicated task must open disjoint trees.
  MonitoringTask critical = task({0}, all);
  critical.reliability = ReliabilityMode::kSSDP;
  critical.replicas = 2;
  service.add_task(critical);
  now += 40.0;
  const auto final_status = service.status(now);
  EXPECT_GE(final_status.adaptations, 1u);
  EXPECT_GT(final_status.adaptation_messages, 0u);
  EXPECT_TRUE(service.topology(now).validate(service.system()));
  EXPECT_EQ(final_status.tasks, 6u);  // 1 base + 4 per-round + critical
  const PairSet final_pairs =
      service.tasks().dedup(service.system().num_vertices());
  EXPECT_EQ(final_status.pairs, final_pairs.total_pairs());
  EXPECT_GT(deliveries, 1000u);
}

}  // namespace
}  // namespace remo
