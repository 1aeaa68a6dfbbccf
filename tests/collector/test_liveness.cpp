// Collector-side liveness tracking: delivery gaps turn into suspect/recover
// events with period-aware deadlines (the detection half of the detect →
// repair → replan loop).
#include "collector/liveness.h"

#include <gtest/gtest.h>

#include "tree/monitoring_tree.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

/// A hand-built star/chain over nodes 1..n, attr 0, weight `w`, wrapped
/// into a one-entry topology. `chain` strings node i under node i-1.
Topology make_topology(std::size_t n, double w = 1.0, bool chain = false) {
  MonitoringTree tree({{0, FunnelSpec{AggType::kHolistic}, w}},
                      /*collector_avail=*/1e9, kCost);
  for (NodeId id = 1; id <= n; ++id)
    tree.attach(BuildItem{id, {1}, 1e9},
                chain && id > 1 ? id - 1 : kCollectorId);
  Topology topo;
  const std::size_t pairs = tree.collected_pairs();
  topo.mutable_entries().push_back(TreeEntry{{0}, std::move(tree), pairs, pairs});
  topo.set_total_pairs(pairs);
  return topo;
}

void deliver_all(LivenessTracker& t, std::size_t n, std::uint64_t epoch) {
  for (NodeId id = 1; id <= n; ++id) t.on_delivery({id, 0}, epoch);
}

TEST(Liveness, DetectsAfterMissedDeadlines) {
  LivenessTracker t(LivenessConfig{/*missed_deadlines=*/3});
  auto topo = make_topology(5);
  t.sync(topo, 0);
  EXPECT_EQ(t.tracked(), 5u);

  // All nodes deliver through epoch 10; node 3 then goes silent.
  for (std::uint64_t e = 0; e <= 10; ++e) {
    deliver_all(t, 5, e);
    EXPECT_TRUE(t.end_epoch(e).empty());
  }
  // Star: interval 1, grace 1 => deadline = 10 + 1 + 3 = 14; the first
  // boundary past it (epoch 15) fires the detection.
  for (std::uint64_t e = 11; e <= 14; ++e) {
    for (NodeId id = 1; id <= 5; ++id)
      if (id != 3) t.on_delivery({id, 0}, e);
    EXPECT_TRUE(t.end_epoch(e).empty()) << "epoch " << e;
  }
  for (NodeId id = 1; id <= 5; ++id)
    if (id != 3) t.on_delivery({id, 0}, 15);
  const auto events = t.end_epoch(15);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].node, 3u);
  EXPECT_TRUE(events[0].down);
  EXPECT_EQ(events[0].epoch, 15u);
  // Silence became observable at last_seen + interval = 11: lag = 4.
  EXPECT_EQ(events[0].lag, 4u);
  EXPECT_TRUE(t.is_down(3));
  EXPECT_EQ(t.suspected(), std::vector<NodeId>{3});
}

TEST(Liveness, RecoveryEmitsEventOnNextBoundary) {
  LivenessTracker t(LivenessConfig{2});
  auto topo = make_topology(3);
  t.sync(topo, 0);
  deliver_all(t, 3, 0);
  t.end_epoch(0);
  // Node 2 silent until well past its deadline (0 + 1 + 2 = 3).
  std::uint64_t e = 1;
  for (; t.suspected().empty(); ++e) {
    t.on_delivery({1, 0}, e);
    t.on_delivery({3, 0}, e);
    t.end_epoch(e);
    ASSERT_LT(e, 20u);
  }
  EXPECT_TRUE(t.is_down(2));
  // A delivery from the suspect recovers it; the event surfaces at the
  // next boundary, before any new detections.
  t.on_delivery({2, 0}, e);
  const auto events = t.end_epoch(e);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].node, 2u);
  EXPECT_FALSE(events[0].down);
  EXPECT_FALSE(t.is_down(2));
  EXPECT_TRUE(t.suspected().empty());
}

TEST(Liveness, DeadlinesScaleWithSendPeriod) {
  // Weight 0.25 => period 4: a node delivering every 4 epochs must never
  // be suspected at threshold 3, while an equally-silent period-1 node is.
  LivenessTracker t(LivenessConfig{3});
  auto topo = make_topology(2, 0.25);
  t.sync(topo, 0);
  for (std::uint64_t e = 0; e <= 40; ++e) {
    if (e % 4 == 0) {
      t.on_delivery({1, 0}, e);
      t.on_delivery({2, 0}, e);
    }
    EXPECT_TRUE(t.end_epoch(e).empty()) << "epoch " << e;
  }
  // Now node 2 stops: deadline = 40 + 1 + 4*3 = 53, detection at 54.
  std::uint64_t detect = 0;
  for (std::uint64_t e = 41; e <= 60 && detect == 0; ++e) {
    if (e % 4 == 0) t.on_delivery({1, 0}, e);
    const auto events = t.end_epoch(e);
    if (!events.empty()) {
      ASSERT_EQ(events.size(), 1u);
      EXPECT_EQ(events[0].node, 2u);
      detect = e;
    }
  }
  EXPECT_EQ(detect, 54u);
}

TEST(Liveness, DeeperMembersGetPipelineGrace) {
  // Chain 0 <- 1 <- 2 <- 3: node 3's values need 3 hops, so its deadline
  // is 3 epochs later than node 1's for the same last_seen.
  LivenessTracker t(LivenessConfig{2});
  auto topo = make_topology(3, 1.0, /*chain=*/true);
  t.sync(topo, 0);
  deliver_all(t, 3, 5);
  t.end_epoch(5);
  // All silent from epoch 6 on. Node 1 (grace 1): deadline 5+1+2=8.
  // Node 2 (grace 2): 9. Node 3 (grace 3): 10.
  std::vector<std::pair<NodeId, std::uint64_t>> detections;
  for (std::uint64_t e = 6; e <= 12; ++e)
    for (const auto& ev : t.end_epoch(e))
      detections.emplace_back(ev.node, ev.epoch);
  ASSERT_EQ(detections.size(), 3u);
  EXPECT_EQ(detections[0], (std::pair<NodeId, std::uint64_t>{1, 9}));
  EXPECT_EQ(detections[1], (std::pair<NodeId, std::uint64_t>{2, 10}));
  EXPECT_EQ(detections[2], (std::pair<NodeId, std::uint64_t>{3, 11}));
}

TEST(Liveness, SyncCarriesHistoryAndForgetsDepartures) {
  LivenessTracker t(LivenessConfig{3});
  auto topo = make_topology(4);
  t.sync(topo, 0);
  deliver_all(t, 4, 6);
  t.end_epoch(6);

  // Re-sync mid-silence (e.g. after a repair redeploy): last_seen must
  // survive, so node 4's detection still happens on the original clock.
  auto smaller = make_topology(3);  // node 4 left the deployment
  t.sync(smaller, 8);
  EXPECT_EQ(t.tracked(), 3u);
  EXPECT_FALSE(t.is_down(4));  // forgotten, not suspected

  auto same = make_topology(3);
  t.sync(same, 9);
  // Node 3 keeps delivering; 1 and 2 went silent after epoch 6: deadline
  // 6 + 1 + 3 = 10, detection at 11 despite the re-syncs.
  std::vector<std::uint64_t> detect_epochs;
  for (std::uint64_t e = 9; e <= 12; ++e) {
    t.on_delivery({3, 0}, e);
    for (const auto& ev : t.end_epoch(e)) {
      EXPECT_TRUE(ev.down);
      detect_epochs.push_back(ev.epoch);
    }
  }
  ASSERT_EQ(detect_epochs.size(), 2u);  // nodes 1 and 2
  EXPECT_EQ(detect_epochs[0], 11u);
  EXPECT_EQ(detect_epochs[1], 11u);
}

TEST(Liveness, SuspectedNodesSurviveLeavingTheDeployment) {
  // Repair may drop a suspect's branch from the topology entirely. The
  // tracker must keep remembering it as down: forgetting would let the
  // next replan re-admit the dead node as healthy (fresh deadline clock),
  // causing an endless detect/replan flap. Only a delivery clears it.
  LivenessTracker t(LivenessConfig{2});
  auto topo = make_topology(3);
  t.sync(topo, 0);
  deliver_all(t, 3, 0);
  t.end_epoch(0);
  // Node 3 silent: deadline 0 + 1 + 2 = 3, detection at 4.
  for (std::uint64_t e = 1; e <= 4; ++e) {
    t.on_delivery({1, 0}, e);
    t.on_delivery({2, 0}, e);
    t.end_epoch(e);
  }
  ASSERT_TRUE(t.is_down(3));

  // Node 3 dropped from the deployment; it must stay suspected through
  // re-syncs, and never re-fire a detection.
  auto smaller = make_topology(2);
  t.sync(smaller, 5);
  EXPECT_TRUE(t.is_down(3));
  EXPECT_EQ(t.suspected(), std::vector<NodeId>{3});
  for (std::uint64_t e = 5; e <= 20; ++e) {
    t.on_delivery({1, 0}, e);
    t.on_delivery({2, 0}, e);
    t.sync(smaller, e);
    EXPECT_TRUE(t.end_epoch(e).empty()) << "epoch " << e;
  }

  // Once re-parked into the topology and delivering again, it recovers.
  auto full = make_topology(3);
  t.sync(full, 21);
  t.on_delivery({3, 0}, 21);
  const auto events = t.end_epoch(21);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].node, 3u);
  EXPECT_FALSE(events[0].down);
  EXPECT_TRUE(t.suspected().empty());
}

TEST(Liveness, DroppedSuspectReportsItsRecovery) {
  // A suspect leaves the deployment, either dropped by repair before it
  // delivers again or in the same re-sync that follows its delivery (say,
  // a task change removed its pairs). Either way the re-sync before the
  // next boundary forgets it (it is neither deployed nor down any more),
  // but its recovery must still surface: it is the facade's only news
  // that the node is back.
  for (const bool dropped_first : {true, false}) {
    SCOPED_TRACE(dropped_first ? "dropped before its delivery"
                               : "dropped after its delivery");
    LivenessTracker t(LivenessConfig{2});
    auto topo = make_topology(3);
    t.sync(topo, 0);
    deliver_all(t, 3, 0);
    t.end_epoch(0);
    // Node 3 silent: deadline 0 + 1 + 2 = 3, detection at 4.
    for (std::uint64_t e = 1; e <= 4; ++e) {
      t.on_delivery({1, 0}, e);
      t.on_delivery({2, 0}, e);
      t.end_epoch(e);
    }
    ASSERT_TRUE(t.is_down(3));

    auto smaller = make_topology(2);
    t.sync(dropped_first ? smaller : topo, 5);
    ASSERT_TRUE(t.is_down(3));
    t.on_delivery({3, 0}, 6);
    t.sync(smaller, 6);
    const auto events = t.end_epoch(6);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].node, 3u);
    EXPECT_FALSE(events[0].down);
    EXPECT_EQ(events[0].epoch, 6u);
    // Silent since its delivery at 0, observable from 0 + interval = 1.
    EXPECT_EQ(events[0].lag, 5u);
    EXPECT_FALSE(t.is_down(3));
    EXPECT_TRUE(t.suspected().empty());
    EXPECT_EQ(t.tracked(), 2u);
  }
}

TEST(Liveness, BrandNewNodeStartsClockAtSync) {
  LivenessTracker t(LivenessConfig{2});
  auto topo = make_topology(2);
  t.sync(topo, 100);
  // Never delivered, but the clock started at 100: deadline 100+1+2=103.
  EXPECT_TRUE(t.end_epoch(101).empty());
  EXPECT_TRUE(t.end_epoch(103).empty());
  const auto events = t.end_epoch(104);
  EXPECT_EQ(events.size(), 2u);
}

TEST(Liveness, RelayOnlyMembersAreNotTracked) {
  // Node 2 relays but observes nothing: the collector has no delivery
  // expectation for it, so it must not be tracked (nor ever suspected).
  MonitoringTree tree({{0, FunnelSpec{AggType::kHolistic}, 1.0}},
                      1e9, kCost);
  tree.attach(BuildItem{1, {1}, 1e9}, kCollectorId);
  tree.attach(BuildItem{2, {0}, 1e9}, 1);  // relay-only
  tree.attach(BuildItem{3, {1}, 1e9}, 2);
  Topology topo;
  topo.mutable_entries().push_back(TreeEntry{{0}, std::move(tree), 2, 2});
  topo.set_total_pairs(2);
  LivenessTracker t;
  t.sync(topo, 0);
  EXPECT_EQ(t.tracked(), 2u);
  EXPECT_FALSE(t.is_down(2));
}

}  // namespace
}  // namespace remo
