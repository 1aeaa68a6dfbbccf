// move_branch_first is the adjusting procedure's batched move: it unlinks
// the branch once and tests each target with the non-mutating walk. Over 20
// seeded random trees it must leave exactly the state a loop of move_branch
// calls leaves — same returned index, same parents, member and child orders,
// depths, and bit-identical loads (integer costs keep the arithmetic exact).
#include <gtest/gtest.h>

#include <bit>

#include "common/rng.h"
#include "tree/monitoring_tree.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

/// Everything observable about a tree, doubles as raw bits.
struct TreeImage {
  std::vector<NodeId> members;
  std::vector<NodeId> parents;
  std::vector<std::vector<NodeId>> kids;
  std::vector<std::size_t> depths;
  std::vector<std::vector<std::uint32_t>> in;
  std::vector<std::uint64_t> payload, usage, avail;
  std::size_t pairs = 0;
  std::uint64_t cost = 0;

  bool operator==(const TreeImage&) const = default;
};

TreeImage capture(const MonitoringTree& t) {
  TreeImage img;
  img.members = t.members();
  auto grab = [&](NodeId n) {
    img.parents.push_back(t.parent(n));
    img.kids.push_back(t.children(n));
    img.depths.push_back(t.depth(n));
    const auto in = t.in_counts(n);
    img.in.emplace_back(in.begin(), in.end());
    img.payload.push_back(std::bit_cast<std::uint64_t>(t.payload(n)));
    img.usage.push_back(std::bit_cast<std::uint64_t>(t.usage(n)));
    img.avail.push_back(std::bit_cast<std::uint64_t>(t.avail(n)));
  };
  grab(kCollectorId);
  for (NodeId n : img.members) grab(n);
  img.pairs = t.collected_pairs();
  img.cost = std::bit_cast<std::uint64_t>(t.total_cost());
  return img;
}

/// The reference: move_branch per target until one succeeds.
std::size_t sequential_moves(MonitoringTree& t, NodeId r,
                             const std::vector<NodeId>& targets) {
  for (std::size_t i = 0; i < targets.size(); ++i)
    if (t.move_branch(r, targets[i])) return i;
  return targets.size();
}

/// A random tree of about `n` members; integer capacities keep every load
/// an exact integer.
MonitoringTree random_tree(Rng& rng, std::uint64_t seed, std::size_t n) {
  const AggType aggs[] = {AggType::kHolistic, AggType::kSum, AggType::kMax,
                          AggType::kTopK, AggType::kDistinct};
  std::vector<TreeAttrSpec> attrs{{0, FunnelSpec{aggs[seed % 5], 3}, 1.0},
                                  {1, FunnelSpec{AggType::kHolistic}, 1.0}};
  MonitoringTree tree(attrs, /*collector_avail=*/300.0, kCost);
  for (NodeId id = 1; tree.size() < n && id < 8 * n; ++id) {
    BuildItem item{id,
                   {static_cast<std::uint32_t>(rng.below(3)),
                    static_cast<std::uint32_t>(rng.below(3))},
                   static_cast<Capacity>(20 + rng.below(60))};
    const auto& members = tree.members();
    const NodeId parent = members.empty() || rng.bernoulli(0.2)
                              ? kCollectorId
                              : members[rng.below(members.size())];
    tree.try_attach(item, parent);
  }
  return tree;
}

NodeId random_member(Rng& rng, const MonitoringTree& t) {
  return t.members()[rng.below(t.members().size())];
}

class MoveBranchFirst : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MoveBranchFirst, MatchesSequentialMoveBranch) {
  const std::uint64_t seed = GetParam();
  Rng rng{seed};
  MonitoringTree tree = random_tree(rng, seed, 30);
  ASSERT_GE(tree.size(), 10u);
  std::size_t moved = 0, failed = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const NodeId r = random_member(rng, tree);
    // Any vertex may be a target: inside the branch, r's parent and r
    // itself are skipped by both paths.
    std::vector<NodeId> targets;
    const auto len = rng.below(7);
    for (std::uint32_t i = 0; i < len; ++i)
      targets.push_back(rng.bernoulli(0.15) ? kCollectorId
                                            : random_member(rng, tree));
    MonitoringTree batched = tree;
    MonitoringTree reference = tree;
    const std::size_t got = batched.move_branch_first(r, targets);
    const std::size_t want = sequential_moves(reference, r, targets);
    ASSERT_EQ(got, want) << "seed " << seed << " trial " << trial;
    ASSERT_EQ(capture(batched), capture(reference))
        << "seed " << seed << " trial " << trial;
    ASSERT_TRUE(batched.validate());
    if (got < targets.size()) ++moved; else ++failed;
    tree = std::move(batched);
  }
  EXPECT_GT(moved, 0u) << "seed " << seed;
  EXPECT_GT(failed, 0u) << "seed " << seed;
}

TEST_P(MoveBranchFirst, UntestedTargetsLeaveChildOrderAlone) {
  const std::uint64_t seed = GetParam();
  Rng rng{seed};
  MonitoringTree tree = random_tree(rng, seed, 30);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId r = random_member(rng, tree);
    const TreeImage before = capture(tree);
    EXPECT_EQ(tree.move_branch_first(r, {}), 0u);
    ASSERT_EQ(capture(tree), before) << "empty list, seed " << seed;
    // Only unmovable targets: r itself, its parent, its descendants, and
    // ids that are not in the tree.
    std::vector<NodeId> targets = tree.branch_nodes(r);
    targets.push_back(tree.parent(r));
    targets.push_back(100000);
    EXPECT_EQ(tree.move_branch_first(r, targets), targets.size());
    ASSERT_EQ(capture(tree), before) << "unmovable list, seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoveBranchFirst,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace remo
