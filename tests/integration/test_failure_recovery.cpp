// End-to-end failure recovery: the MonitoringSystem's detect → repair →
// replan loop closed against the simulator. A mid-chain outage orphans a
// deep subtree; the loop must notice from delivery gaps alone, re-home the
// orphans, and bring the alive pairs' error back to the no-failure level —
// while the same outage without the loop never recovers.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "common/check.h"
#include "core/monitoring_system.h"
#include "sim/simulator.h"

namespace remo {
namespace {

constexpr std::uint64_t kForever = std::numeric_limits<std::uint64_t>::max();
const CostModel kCost{10.0, 1.0};

SystemModel make_system(std::size_t n) {
  SystemModel s(n, 1e6, kCost);
  s.set_collector_capacity(1e9);
  for (NodeId id = 1; id <= n; ++id) s.set_observable(id, {0});
  return s;
}

MonitoringSystemOptions loop_options() {
  MonitoringSystemOptions o;
  // Deep chain: a mid-chain failure orphans a large subtree.
  o.planner.partition_scheme = PartitionScheme::kOneSet;
  o.planner.tree.scheme = TreeScheme::kChain;
  o.recovery.enabled = true;
  o.recovery.liveness.missed_deadlines = 3;
  o.recovery.stabilize_epochs = 8;
  return o;
}

MonitoringTask all_nodes_task(std::size_t n) {
  MonitoringTask t;
  t.attrs = {0};
  for (NodeId id = 1; id <= n; ++id) t.nodes.push_back(id);
  return t;
}

/// Mean of pair_mean_error over pairs whose node is not `skip`.
double alive_mean(const SimReport& report, const PairSet& pairs, NodeId skip) {
  const auto all = pairs.all_pairs();
  double sum = 0.0;
  std::size_t cnt = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].node == skip) continue;
    sum += report.pair_mean_error[i];
    ++cnt;
  }
  return sum / static_cast<double>(cnt);
}

TEST(FailureRecovery, ClosedLoopHealsAPermanentMidChainOutage) {
  const std::size_t n = 16;
  SystemModel system = make_system(n);
  MonitoringSystem service(std::move(system), loop_options());
  service.add_task(all_nodes_task(n));
  const Topology initial = service.topology(0.0);
  ASSERT_GE(initial.entries()[0].tree.height(), 12u);

  const auto& tree = initial.entries()[0].tree;
  NodeId victim = kNoNode;
  for (NodeId m : tree.members())
    if (tree.depth(m) == 3) victim = m;
  ASSERT_NE(victim, kNoNode);
  const std::size_t orphan_count = tree.branch_nodes(victim).size() - 1;
  ASSERT_GE(orphan_count, 10u);  // most of the chain hangs below the victim

  const PairSet pairs = service.tasks().dedup(service.system().num_vertices());
  SimConfig cfg;
  cfg.epochs = 240;
  cfg.warmup = 120;  // sample well after the repair + replan settled
  cfg.collect_pair_errors = true;
  cfg.failures = {{victim, 40, kForever}};

  // --- healing run: the loop closed through the facade -------------------
  std::vector<LivenessEvent> detects;
  {
    // Rebuild the service with observability hooks installed.
    MonitoringSystemOptions opts = loop_options();
    opts.recovery.on_detect = [&](const LivenessEvent& ev) {
      if (ev.down) detects.push_back(ev);
    };
    MonitoringSystem healing(make_system(n), std::move(opts));
    healing.add_task(all_nodes_task(n));
    ASSERT_EQ(edge_diff(healing.topology(0.0), initial), 0u);

    bool changed = false;
    SimConfig loop = cfg;
    loop.on_delivery = [&](NodeAttrPair p, std::uint64_t e, double) {
      healing.on_delivery(p, e);
    };
    loop.on_epoch_end = [&](std::uint64_t e) { changed = healing.end_epoch(e); };
    loop.on_reconfigure = [&](std::uint64_t e) -> const Topology* {
      return changed ? &healing.topology(static_cast<double>(e)) : nullptr;
    };
    RandomWalkSource src(pairs, 42, 100.0, 3.0);
    const auto healed = simulate(healing.system(), healing.topology(0.0),
                                 pairs, src, loop);

    // Detection: the victim's last value arrives at epoch 41 (depth 3);
    // deadline = 41 + grace 3 + 3 deadlines = 47, detection at 48.
    ASSERT_FALSE(detects.empty());
    EXPECT_EQ(detects.front().node, victim);
    EXPECT_GE(detects.front().epoch, 41u);
    EXPECT_LE(detects.front().epoch, 52u);

    const auto& rep = healing.repair_report();
    EXPECT_GE(rep.outages_detected, 1u);
    EXPECT_GE(rep.repair_passes, 1u);
    EXPECT_EQ(rep.orphans_reattached, orphan_count);
    EXPECT_GE(rep.suspects_parked, 1u);
    EXPECT_GE(rep.replans_after_outage, 1u);
    EXPECT_GT(rep.repair_messages, 0u);
    EXPECT_EQ(rep.pairs_dropped, 0u);  // ample capacity: nobody is lost
    EXPECT_GT(rep.mean_detect_epochs(), 0.0);
    EXPECT_TRUE(healing.liveness().is_down(victim));
    EXPECT_TRUE(
        healing.topology(240.0).validate(healing.system()));

    // --- reference runs: same workload, loop open ----------------------
    RandomWalkSource s_base(pairs, 42, 100.0, 3.0);
    SimConfig base = cfg;
    base.failures.clear();
    const auto baseline = simulate(service.system(), initial, pairs, s_base, base);

    RandomWalkSource s_broken(pairs, 42, 100.0, 3.0);
    const auto broken = simulate(service.system(), initial, pairs, s_broken, cfg);

    const double healed_alive = alive_mean(healed, pairs, victim);
    const double base_alive = alive_mean(baseline, pairs, victim);
    const double broken_alive = alive_mean(broken, pairs, victim);
    // Post-repair the alive pairs track truth as well as the no-failure
    // run (the repaired forest is shallower, so usually better).
    EXPECT_LE(healed_alive, base_alive * 1.1 + 0.5);
    // Without the loop the orphaned subtree stays stale forever.
    EXPECT_GT(broken_alive, 2.0 * healed_alive + 1.0);
    EXPECT_GT(broken_alive, 2.0 * base_alive + 1.0);
  }
}

TEST(FailureRecovery, TransientOutageRecoversAndReintegrates) {
  const std::size_t n = 12;
  MonitoringSystem service(make_system(n), loop_options());
  service.add_task(all_nodes_task(n));
  const Topology initial = service.topology(0.0);
  const auto& tree = initial.entries()[0].tree;
  NodeId victim = kNoNode;
  for (NodeId m : tree.members())
    if (tree.depth(m) == 2) victim = m;
  ASSERT_NE(victim, kNoNode);

  const PairSet pairs = service.tasks().dedup(service.system().num_vertices());
  bool changed = false;
  SimConfig cfg;
  cfg.epochs = 200;
  cfg.warmup = 120;
  cfg.collect_pair_errors = true;
  cfg.failures = {{victim, 40, 70}};
  cfg.on_delivery = [&](NodeAttrPair p, std::uint64_t e, double) {
    service.on_delivery(p, e);
  };
  cfg.on_epoch_end = [&](std::uint64_t e) { changed = service.end_epoch(e); };
  cfg.on_reconfigure = [&](std::uint64_t e) -> const Topology* {
    return changed ? &service.topology(static_cast<double>(e)) : nullptr;
  };
  RandomWalkSource src(pairs, 7, 100.0, 3.0);
  const auto report = simulate(service.system(), initial, pairs, src, cfg);

  const auto& rep = service.repair_report();
  EXPECT_GE(rep.outages_detected, 1u);
  // The suspect is parked on a probe link, so its first post-outage send
  // reaches the collector directly and the recovery is observed.
  EXPECT_GE(rep.recoveries_detected, 1u);
  EXPECT_FALSE(service.liveness().is_down(victim));
  EXPECT_TRUE(service.liveness().suspected().empty());
  EXPECT_TRUE(service.topology(200.0).validate(service.system()));

  // After reintegration every pair — including the victim's — is fresh.
  const auto all = pairs.all_pairs();
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_LT(report.pair_mean_error[i], 25.0)
        << "pair node " << all[i].node;
  const auto status = service.status(200.0);
  EXPECT_EQ(status.repair.recoveries_detected, rep.recoveries_detected);
}

// A task change that lands while the loop plans around a suspect, in the
// three shapes that reach the planner: a modify on the delta fast path, the
// same modify turned into a full rebuild by a constraint-signature change
// (aggregation = kSum adds a funnel), and a forced replan(). The replan
// after the outage left the suspect's pairs out of the planner's pair set;
// each path must leave it out too. Otherwise the suspect is drafted back
// into the chain as a relay while still down (and, on the delta path, deep
// validation of the planner's pairs against the manager's, minus the
// suspect's, aborts).
TEST(FailureRecovery, TaskChurnWhilePlannedAroundLeavesTheSuspectOut) {
  struct ValidationOn {
    bool was = validation_enabled();
    ValidationOn() { set_validation_enabled(true); }
    ~ValidationOn() { set_validation_enabled(was); }
  } const validate;
  enum class Input { kDeltaModify, kRebuildModify, kReplan };
  for (const Input input : {Input::kDeltaModify, Input::kRebuildModify, Input::kReplan}) {
    SCOPED_TRACE("input " + std::to_string(static_cast<int>(input)));
    const std::size_t n = 8;
    SystemModel system = make_system(n);
    for (NodeId id = 1; id <= n; ++id) system.set_observable(id, {0, 1});
    MonitoringSystem service(std::move(system), loop_options());
    MonitoringTask task = all_nodes_task(n);
    task.id = service.add_task(task);
    const Topology initial = service.topology(0.0);
    const auto& chain = initial.entries()[0].tree;
    NodeId victim = kNoNode;
    for (NodeId m : chain.members())
      if (chain.depth(m) == 2) victim = m;
    ASSERT_NE(victim, kNoNode);

    std::uint64_t epoch = 0;
    auto now = [&epoch] { return static_cast<double>(epoch); };
    auto step = [&](bool victim_silent) {
      ++epoch;
      for (NodeId id = 1; id <= n; ++id) {
        if (id == victim && victim_silent) continue;
        for (AttrId a : task.attrs) service.on_delivery({id, a}, epoch);
      }
      service.end_epoch(epoch);
    };
    auto collected = [&](NodeId node, AttrId attr) {
      const auto pairs = service.collected_pairs(now());
      return std::find(pairs.begin(), pairs.end(), NodeAttrPair{node, attr}) !=
             pairs.end();
    };

    // Silent until the replan after the outage has planned around it.
    while (service.repair_report().replans_after_outage == 0 && epoch < 100)
      step(true);
    ASSERT_EQ(service.repair_report().replans_after_outage, 1u);
    ASSERT_TRUE(service.liveness().is_down(victim));

    if (input == Input::kReplan) {
      service.replan(now());
    } else {
      task.attrs = {0, 1};
      if (input == Input::kRebuildModify) task.aggregation = AggType::kSum;
      ASSERT_TRUE(service.modify_task(task));
    }
    step(true);
    if (input == Input::kDeltaModify) {
      EXPECT_EQ(service.status(now()).delta_applies, 1u);
    }
    for (const auto& entry : service.topology(now()).entries()) {
      if (entry.tree.contains(victim)) {
        EXPECT_TRUE(entry.tree.children(victim).empty())
            << "suspect " << victim << " drafted as a relay";
      }
    }
    if (input == Input::kDeltaModify) {
      EXPECT_FALSE(collected(victim, 1));
    }
    for (NodeId id = 1; id <= n; ++id) {
      if (id == victim) continue;
      for (AttrId a : task.attrs) {
        EXPECT_TRUE(collected(id, a)) << "node " << id << " attr " << a;
      }
    }

    // It resumes: the recovery schedules a replan that plans its pairs in.
    while (service.repair_report().replans_after_outage == 1 && epoch < 200)
      step(false);
    ASSERT_EQ(service.repair_report().replans_after_outage, 2u);
    EXPECT_TRUE(service.liveness().suspected().empty());
    for (AttrId a : task.attrs) {
      EXPECT_TRUE(collected(victim, a)) << "attr " << a;
    }
    EXPECT_TRUE(service.topology(now()).validate(service.system()));
  }
}

}  // namespace
}  // namespace remo
