#include "tree/monitoring_tree.h"

#include <gtest/gtest.h>

namespace remo {
namespace {

std::vector<TreeAttrSpec> holistic_attrs(std::size_t n) {
  std::vector<TreeAttrSpec> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(TreeAttrSpec{static_cast<AttrId>(i), FunnelSpec{}, 1.0});
  return out;
}

BuildItem item(NodeId id, std::vector<std::uint32_t> local, Capacity avail) {
  return BuildItem{id, std::move(local), avail};
}

// Cost model: C = 10, a = 1 throughout.
const CostModel kCost{10.0, 1.0};

TEST(MonitoringTree, EmptyTreeHasOnlyCollector) {
  MonitoringTree t(holistic_attrs(2), 100.0, kCost);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.contains(kCollectorId));
  EXPECT_EQ(t.usage(kCollectorId), 0.0);
  EXPECT_EQ(t.height(), 0u);
  EXPECT_TRUE(t.validate());
}

TEST(MonitoringTree, AttachUnderCollector) {
  MonitoringTree t(holistic_attrs(2), 100.0, kCost);
  ASSERT_TRUE(t.can_attach(item(1, {1, 1}, 50.0), kCollectorId));
  t.attach(item(1, {1, 1}, 50.0), kCollectorId);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.parent(1), kCollectorId);
  EXPECT_EQ(t.depth(1), 1u);
  // u_1 = C + a*2 = 12; collector receives it.
  EXPECT_DOUBLE_EQ(t.send_cost(1), 12.0);
  EXPECT_DOUBLE_EQ(t.usage(1), 12.0);
  EXPECT_DOUBLE_EQ(t.usage(kCollectorId), 12.0);
  EXPECT_TRUE(t.validate());
}

TEST(MonitoringTree, RelayAccumulatesPayload) {
  MonitoringTree t(holistic_attrs(1), 1000.0, kCost);
  t.attach(item(1, {1}, 1000.0), kCollectorId);
  t.attach(item(2, {1}, 1000.0), 1);
  t.attach(item(3, {1}, 1000.0), 2);
  // y_3 = 1, y_2 = 2, y_1 = 3.
  EXPECT_DOUBLE_EQ(t.payload(3), 1.0);
  EXPECT_DOUBLE_EQ(t.payload(2), 2.0);
  EXPECT_DOUBLE_EQ(t.payload(1), 3.0);
  // usage_2 = u_2 + u_3 = (10+2) + (10+1) = 23.
  EXPECT_DOUBLE_EQ(t.usage(2), 23.0);
  EXPECT_EQ(t.height(), 3u);
  EXPECT_TRUE(t.validate());
}

TEST(MonitoringTree, CollectorCapacityBlocksAttach) {
  MonitoringTree t(holistic_attrs(1), 20.0, kCost);  // fits one msg of u<=20
  t.attach(item(1, {1}, 100.0), kCollectorId);       // u=11
  NodeId blocker = kNoNode;
  EXPECT_FALSE(t.can_attach(item(2, {1}, 100.0), kCollectorId, &blocker));
  EXPECT_EQ(blocker, kCollectorId);
  // But attaching under node 1 works (its capacity is plentiful) as long
  // as the collector can absorb the payload growth (11 -> 12 <= 20).
  EXPECT_TRUE(t.can_attach(item(2, {1}, 100.0), 1));
}

TEST(MonitoringTree, OwnBudgetBlocksAttach) {
  MonitoringTree t(holistic_attrs(1), 1000.0, kCost);
  NodeId blocker = kNoNode;
  // u = 11 > avail 10.5: the node cannot even afford its own message.
  EXPECT_FALSE(t.can_attach(item(1, {1}, 10.5), kCollectorId, &blocker));
  EXPECT_EQ(blocker, 1u);
}

TEST(MonitoringTree, AncestorOverloadBlocksDeepAttach) {
  MonitoringTree t(holistic_attrs(1), 1000.0, kCost);
  // Node 1 can afford u up to 13: local 1 value (u=11) + 2 more relayed.
  t.attach(item(1, {1}, 24.0), kCollectorId);  // u_1 = 11, usage(1) = 11
  t.attach(item(2, {1}, 100.0), 1);            // u_2 = 11; usage(1) = 12 + 11 = 23
  // Attaching under node 2 adds receive 11 at node 2 and +1 payload at
  // node 1 (u_1 13) plus +1 receive growth: usage(1) = 13 + 12 = 25 > 24.
  NodeId blocker = kNoNode;
  EXPECT_FALSE(t.can_attach(item(3, {1}, 100.0), 2, &blocker));
  EXPECT_EQ(blocker, 1u);
}

TEST(MonitoringTree, AttachRejectsDuplicateAndUnknownParent) {
  MonitoringTree t(holistic_attrs(1), 1000.0, kCost);
  t.attach(item(1, {1}, 100.0), kCollectorId);
  EXPECT_FALSE(t.can_attach(item(1, {1}, 100.0), kCollectorId));  // already in
  EXPECT_FALSE(t.can_attach(item(2, {1}, 100.0), 77));            // no such parent
}

TEST(MonitoringTree, CountVectorSizeMismatchThrows) {
  MonitoringTree t(holistic_attrs(2), 1000.0, kCost);
  EXPECT_THROW((void)t.can_attach(item(1, {1}, 100.0), kCollectorId),
               std::invalid_argument);
}

TEST(MonitoringTree, SumFunnelCollapsesPayload) {
  std::vector<TreeAttrSpec> attrs{{0, FunnelSpec{AggType::kSum}, 1.0}};
  MonitoringTree t(attrs, 1000.0, kCost);
  t.attach(item(1, {1}, 1000.0), kCollectorId);
  t.attach(item(2, {1}, 1000.0), 1);
  t.attach(item(3, {1}, 1000.0), 1);
  // in_1 = 1 + 1 + 1 = 3 but out_1 = 1 under SUM: y_1 = 1.
  EXPECT_EQ(t.in_counts(1)[0], 3u);
  EXPECT_DOUBLE_EQ(t.payload(1), 1.0);
  EXPECT_DOUBLE_EQ(t.send_cost(1), 11.0);
  EXPECT_TRUE(t.validate());
}

TEST(MonitoringTree, TopKFunnelCapsPayload) {
  std::vector<TreeAttrSpec> attrs{{0, FunnelSpec{AggType::kTopK, 2}, 1.0}};
  MonitoringTree t(attrs, 1000.0, kCost);
  t.attach(item(1, {1}, 1000.0), kCollectorId);
  for (NodeId n = 2; n <= 5; ++n) t.attach(item(n, {1}, 1000.0), 1);
  EXPECT_EQ(t.in_counts(1)[0], 5u);
  EXPECT_DOUBLE_EQ(t.payload(1), 2.0);  // capped at k=2
  EXPECT_TRUE(t.validate());
}

TEST(MonitoringTree, WeightScalesPayloadNotCounts) {
  std::vector<TreeAttrSpec> attrs{{0, FunnelSpec{}, 0.5}};
  MonitoringTree t(attrs, 1000.0, kCost);
  t.attach(item(1, {1}, 1000.0), kCollectorId);
  t.attach(item(2, {1}, 1000.0), 1);
  EXPECT_EQ(t.in_counts(1)[0], 2u);
  EXPECT_DOUBLE_EQ(t.payload(1), 1.0);  // 2 values at weight 0.5
  EXPECT_DOUBLE_EQ(t.send_cost(1), 11.0);
  EXPECT_TRUE(t.validate());
}

TEST(MonitoringTree, MoveBranchWithinSubtreeFreesPerMessageOverhead) {
  MonitoringTree t(holistic_attrs(1), 1000.0, kCost);
  t.attach(item(1, {1}, 100.0), kCollectorId);
  t.attach(item(2, {1}, 100.0), 1);
  t.attach(item(3, {1}, 100.0), 1);
  const Capacity before = t.usage(1);
  ASSERT_TRUE(t.move_branch(3, 2));
  // Node 1 sheds one child message (C + 1) but its child's message grows
  // by 1 value: net change -C = -10.
  EXPECT_DOUBLE_EQ(t.usage(1), before - kCost.per_message);
  EXPECT_EQ(t.parent(3), 2u);
  EXPECT_EQ(t.depth(3), 3u);
  EXPECT_TRUE(t.validate());
}

TEST(MonitoringTree, MoveBranchPreservesCollectorPayload) {
  MonitoringTree t(holistic_attrs(1), 1000.0, kCost);
  t.attach(item(1, {1}, 100.0), kCollectorId);
  t.attach(item(2, {1}, 100.0), 1);
  t.attach(item(3, {1}, 100.0), 2);
  const std::vector<std::uint32_t> before(t.in_counts(kCollectorId).begin(),
                                          t.in_counts(kCollectorId).end());
  ASSERT_TRUE(t.move_branch(3, 1));
  const std::vector<std::uint32_t> after(t.in_counts(kCollectorId).begin(),
                                         t.in_counts(kCollectorId).end());
  EXPECT_EQ(after, before);
  EXPECT_TRUE(t.validate());
}

TEST(MonitoringTree, MoveBranchRejectsCycle) {
  MonitoringTree t(holistic_attrs(1), 1000.0, kCost);
  t.attach(item(1, {1}, 100.0), kCollectorId);
  t.attach(item(2, {1}, 100.0), 1);
  t.attach(item(3, {1}, 100.0), 2);
  EXPECT_FALSE(t.move_branch(2, 3));  // 3 is inside 2's branch
  EXPECT_TRUE(t.validate());
}

TEST(MonitoringTree, MoveBranchInfeasibleLeavesTreeUnchanged) {
  MonitoringTree t(holistic_attrs(1), 1000.0, kCost);
  t.attach(item(1, {1}, 100.0), kCollectorId);
  t.attach(item(2, {1}, 11.0), 1);  // node 2 can only afford its own message
  t.attach(item(3, {1}, 100.0), 1);
  const Capacity u1 = t.usage(1);
  EXPECT_FALSE(t.move_branch(3, 2));  // node 2 cannot receive
  EXPECT_EQ(t.parent(3), 1u);
  EXPECT_DOUBLE_EQ(t.usage(1), u1);
  EXPECT_TRUE(t.validate());
}

TEST(MonitoringTree, DetachBranchRemovesSubtreeAndLoads) {
  MonitoringTree t(holistic_attrs(1), 1000.0, kCost);
  t.attach(item(1, {1}, 100.0), kCollectorId);
  t.attach(item(2, {1}, 64.0), 1);
  t.attach(item(3, {1}, 32.0), 2);
  auto items = t.detach_branch(2);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].id, 2u);  // BFS order: branch root first
  EXPECT_EQ(items[1].id, 3u);
  EXPECT_DOUBLE_EQ(items[0].avail, 64.0);
  EXPECT_FALSE(t.contains(2));
  EXPECT_FALSE(t.contains(3));
  EXPECT_DOUBLE_EQ(t.payload(1), 1.0);  // back to local only
  EXPECT_TRUE(t.validate());
}

TEST(MonitoringTree, CollectedPairsCountsLocalValues) {
  MonitoringTree t(holistic_attrs(3), 1000.0, kCost);
  t.attach(item(1, {1, 1, 0}, 100.0), kCollectorId);
  t.attach(item(2, {0, 1, 1}, 100.0), 1);
  EXPECT_EQ(t.collected_pairs(), 4u);
}

TEST(MonitoringTree, TotalCostSumsMemberSendCosts) {
  MonitoringTree t(holistic_attrs(1), 1000.0, kCost);
  t.attach(item(1, {1}, 100.0), kCollectorId);
  t.attach(item(2, {1}, 100.0), 1);
  // u_2 = 11, u_1 = 12.
  EXPECT_DOUBLE_EQ(t.total_cost(), 23.0);
  EXPECT_EQ(t.total_messages(), 2u);
}

TEST(MonitoringTree, BranchNodesBfsOrder) {
  MonitoringTree t(holistic_attrs(1), 1000.0, kCost);
  t.attach(item(1, {1}, 100.0), kCollectorId);
  t.attach(item(2, {1}, 100.0), 1);
  t.attach(item(3, {1}, 100.0), 1);
  t.attach(item(4, {1}, 100.0), 2);
  const auto nodes = t.branch_nodes(1);
  ASSERT_EQ(nodes.size(), 4u);
  EXPECT_EQ(nodes.front(), 1u);
  EXPECT_EQ(nodes.back(), 4u);  // depth-2 node last
}

TEST(MonitoringTree, InSubtreeSemantics) {
  MonitoringTree t(holistic_attrs(1), 1000.0, kCost);
  t.attach(item(1, {1}, 100.0), kCollectorId);
  t.attach(item(2, {1}, 100.0), 1);
  EXPECT_TRUE(t.in_subtree(2, 1));
  EXPECT_TRUE(t.in_subtree(1, 1));
  EXPECT_FALSE(t.in_subtree(1, 2));
  EXPECT_TRUE(t.in_subtree(2, kCollectorId));
}

TEST(MonitoringTree, MultiAttrFunnelMixInOneTree) {
  // One holistic and one MAX attribute in the same tree (Sec. 6.1 supports
  // mixed aggregation per tree).
  std::vector<TreeAttrSpec> attrs{{0, FunnelSpec{}, 1.0},
                                  {1, FunnelSpec{AggType::kMax}, 1.0}};
  MonitoringTree t(attrs, 1000.0, kCost);
  t.attach(item(1, {1, 1}, 1000.0), kCollectorId);
  t.attach(item(2, {1, 1}, 1000.0), 1);
  t.attach(item(3, {1, 1}, 1000.0), 1);
  // Holistic attr relays 3 values; MAX collapses to 1.
  EXPECT_DOUBLE_EQ(t.payload(1), 3.0 + 1.0);
  EXPECT_TRUE(t.validate());
}

}  // namespace
}  // namespace remo
