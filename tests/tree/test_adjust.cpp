// The adjusting procedure (Sec. 3.2.1 / 5.1) exercised directly through
// adjust_tree_once.
#include <gtest/gtest.h>

#include "tree/builder.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

std::vector<TreeAttrSpec> one_attr() {
  return {TreeAttrSpec{0, FunnelSpec{}, 1.0}};
}

/// hub under the collector with `branches` single-node branches; the hub's
/// capacity is exactly exhausted, so it is congested.
MonitoringTree congested_hub(std::size_t branches, Capacity leaf_avail = 100.0) {
  const double hub_need = static_cast<double>(branches) * kCost.message_cost(1) +
                          kCost.message_cost(branches + 1);
  MonitoringTree t(one_attr(), 1e9, kCost);
  t.attach(BuildItem{1, {1}, hub_need}, kCollectorId);
  for (NodeId id = 2; id < 2 + branches; ++id)
    t.attach(BuildItem{id, {1}, leaf_avail}, 1);
  return t;
}

TreeBuildOptions opts(bool branch, bool subtree) {
  TreeBuildOptions o;
  o.scheme = TreeScheme::kAdaptive;
  o.branch_reattach = branch;
  o.subtree_only = subtree;
  return o;
}

TEST(AdjustOnce, FreesPerMessageOverheadAtCongestedNode) {
  for (bool branch : {false, true}) {
    for (bool subtree : {false, true}) {
      auto t = congested_hub(4);
      const Capacity before = t.usage(1);
      ASSERT_TRUE(adjust_tree_once(t, {1}, kCost.message_cost(1),
                                   opts(branch, subtree)))
          << branch << subtree;
      // One branch left the hub's direct children: the hub sheds at least
      // the per-message overhead C (exactly C for in-subtree moves; more
      // when the full-scope search re-roots the branch at the collector).
      EXPECT_LE(t.usage(1), before - kCost.per_message + 1e-9)
          << branch << subtree;
      EXPECT_TRUE(t.validate());
      EXPECT_EQ(t.size(), 5u);  // nobody evicted
    }
  }
}

TEST(AdjustOnce, LeafCongestedNodeIsSkipped) {
  auto t = congested_hub(1);  // hub has a single child: degree can't shrink
  EXPECT_FALSE(adjust_tree_once(t, {2}, kCost.message_cost(1), opts(true, true)));
}

TEST(AdjustOnce, FailsWhenNoTargetHasCapacity) {
  // Leaves can only afford their own message: nothing can absorb a branch.
  auto t = congested_hub(4, /*leaf_avail=*/kCost.message_cost(1));
  EXPECT_FALSE(adjust_tree_once(t, {1}, kCost.message_cost(1), opts(true, true)));
  EXPECT_TRUE(t.validate());
}

TEST(AdjustOnce, NodeBasedScattersWhenSingleTargetTooSmall) {
  // A two-node branch that no single target can swallow whole, but whose
  // nodes fit separately: node-based reattach can scatter them — the
  // flexibility the 5.1.1 optimization trades away (branch mode may still
  // succeed here by relocating the *other* branch; both must stay valid).
  MonitoringTree t(one_attr(), 1e9, kCost);
  const double hub_need =
      2.0 * kCost.message_cost(2) + kCost.message_cost(9);  // tight-ish hub
  t.attach(BuildItem{1, {1}, hub_need}, kCollectorId);
  // Branch A: node 2 with child 3 (subtree payload 2).
  t.attach(BuildItem{2, {1}, 40.0}, 1);
  t.attach(BuildItem{3, {1}, 40.0}, 2);
  // Branch B: node 4 with child 5; nodes 4,5 have just enough slack to
  // take ONE extra single node each, not a 2-node branch.
  const double tight = kCost.message_cost(2) /*own send w/ 1 extra*/ +
                       kCost.message_cost(1) /*receive one leaf*/ + 2.0;
  t.attach(BuildItem{4, {1}, tight}, 1);
  t.attach(BuildItem{5, {1}, tight}, 4);
  ASSERT_TRUE(t.validate());

  auto scattered = t;
  const bool node_based =
      adjust_tree_once(scattered, {1}, kCost.message_cost(1), opts(false, true));
  auto moved = t;
  const bool branch_based =
      adjust_tree_once(moved, {1}, kCost.message_cost(1), opts(true, true));
  EXPECT_TRUE(node_based);
  EXPECT_TRUE(scattered.validate());
  EXPECT_TRUE(moved.validate());
  EXPECT_EQ(scattered.size(), 5u);
  if (branch_based) {
    EXPECT_EQ(moved.size(), 5u);
  }
}

TEST(AdjustOnce, SubtreeScopeRespectedUnderTheoremGate) {
  // Two hubs; hub 1 congested. With min_demand <= branch cost, Theorem 1
  // restricts the search to hub 1's subtree: the move lands inside it.
  MonitoringTree t(one_attr(), 1e9, kCost);
  const double hub_need =
      3.0 * kCost.message_cost(1) + kCost.message_cost(4);
  t.attach(BuildItem{1, {1}, hub_need}, kCollectorId);
  for (NodeId id : {2u, 3u, 4u}) t.attach(BuildItem{id, {1}, 100.0}, 1);
  t.attach(BuildItem{10, {1}, 1000.0}, kCollectorId);  // roomy other hub
  ASSERT_TRUE(
      adjust_tree_once(t, {1}, kCost.message_cost(1), opts(true, true)));
  // Every original child of hub 1 must still sit inside hub 1's subtree.
  for (NodeId id : {2u, 3u, 4u}) EXPECT_TRUE(t.in_subtree(id, 1));
  EXPECT_TRUE(t.validate());
}

TEST(AdjustOnce, FullScopeMayMoveAcrossSubtrees) {
  // Same tree, but min_demand larger than the branch cost: the gate opens
  // the whole tree, and the roomy second hub is a legal target.
  MonitoringTree t(one_attr(), 1e9, kCost);
  const double hub_need =
      3.0 * kCost.message_cost(1) + kCost.message_cost(4);
  t.attach(BuildItem{1, {1}, hub_need}, kCollectorId);
  for (NodeId id : {2u, 3u, 4u}) t.attach(BuildItem{id, {1}, 20.0}, 1);
  t.attach(BuildItem{10, {1}, 1000.0}, kCollectorId);
  ASSERT_TRUE(adjust_tree_once(t, {1}, /*min_demand=*/1e6, opts(true, true)));
  bool left_congested_subtree = false;
  for (NodeId id : {2u, 3u, 4u}) left_congested_subtree |= !t.in_subtree(id, 1);
  EXPECT_TRUE(left_congested_subtree);
  EXPECT_TRUE(t.validate());
}

TEST(AdjustOnce, StatsAccumulateReattachTests) {
  auto t = congested_hub(4);
  TreeBuildResult stats{MonitoringTree({}, 0, kCost), {}, 0, 0, 0.0};
  ASSERT_TRUE(adjust_tree_once(t, {1}, kCost.message_cost(1), opts(true, true),
                               &stats));
  EXPECT_GT(stats.reattach_tests, 0u);
}

}  // namespace
}  // namespace remo
