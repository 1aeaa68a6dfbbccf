// move_branch_first is the batched move: it unlinks the branch once and
// tests each target with the non-mutating walk. Over 20 seeded random trees
// it must leave exactly the state a loop of move_branch calls leaves — same
// returned index, same parents, member and child orders, depths, and
// bit-identical loads (integer costs keep the arithmetic exact).
//
// move_branch_ranked is the adjusting procedure's move: it sorts only the
// targets that pass their own hop. On an unsorted key list it must return
// the rank and leave the state that move_branch_first leaves on the same
// list sorted by (key desc, id asc), on identity and non-identity specs.
#include <gtest/gtest.h>

#include <algorithm>
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
/// an exact integer. The first attribute's funnel follows the seed, so
/// some seeds give uniform-identity trees; `identity` forces them.
MonitoringTree random_tree(Rng& rng, std::uint64_t seed, std::size_t n,
                           bool identity = false) {
  const AggType aggs[] = {AggType::kHolistic, AggType::kSum, AggType::kMax,
                          AggType::kTopK, AggType::kDistinct};
  const AggType first = identity ? AggType::kHolistic : aggs[seed % 5];
  std::vector<TreeAttrSpec> attrs{{0, FunnelSpec{first, 3}, 1.0},
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

using Keys = std::vector<MonitoringTree::RankedTarget>;

/// The reference: move_branch_first on `keys` sorted by (key desc, id asc).
std::size_t sorted_first_fit(MonitoringTree& t, NodeId r, Keys keys) {
  std::sort(keys.begin(), keys.end(), [](const auto& x, const auto& y) {
    if (x.first != y.first) return x.first > y.first;
    return x.second < y.second;
  });
  std::vector<NodeId> ids;
  for (const auto& k : keys) ids.push_back(k.second);
  return t.move_branch_first(r, ids);
}

/// True iff `v` fails its own hop for r's branch: the check
/// move_branch_ranked applies, before the unlink, to targets off the root
/// path of r's parent on uniform-identity trees.
bool fails_own_hop(const MonitoringTree& t, NodeId r, NodeId v) {
  const auto in = t.in_counts(r);
  std::uint64_t total = 0;
  for (auto c : in) total += c;
  return t.parent_hop_fails(v, total);
}

/// r's parent's ancestors, up to the collector: the targets whose loads
/// the unlink moves (the parent itself is never a target).
std::vector<NodeId> path_above_parent(const MonitoringTree& t, NodeId r) {
  std::vector<NodeId> out;
  for (NodeId v = t.parent(r); v != kCollectorId;) {
    v = t.parent(v);
    out.push_back(v);
  }
  return out;
}

/// Runs the ranked move and the reference on copies of `tree`; both must
/// return the same rank and leave bit-identical trees. Returns the rank
/// and moves the ranked copy into `tree`.
std::size_t expect_same_move(MonitoringTree& tree, NodeId r, const Keys& keys,
                             const std::string& where) {
  MonitoringTree ranked = tree;
  MonitoringTree reference = tree;
  Keys scratch = keys;
  const std::size_t got = ranked.move_branch_ranked(r, scratch);
  const std::size_t want = sorted_first_fit(reference, r, keys);
  EXPECT_EQ(got, want) << where;
  EXPECT_EQ(capture(ranked), capture(reference)) << where;
  EXPECT_TRUE(ranked.validate()) << where;
  tree = std::move(ranked);
  return got;
}

class MoveBranchRanked
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(MoveBranchRanked, MatchesMoveBranchFirstOnTheSortedList) {
  const auto [seed, identity] = GetParam();
  Rng rng{seed};
  MonitoringTree tree = random_tree(rng, seed, 30, identity);
  ASSERT_GE(tree.size(), 10u);
  std::size_t moved = 0, failed = 0, on_path = 0, own_hop_fails = 0,
              all_fail_own_hop = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::string where = "seed " + std::to_string(seed) + " identity " +
                              std::to_string(identity) + " trial " +
                              std::to_string(trial);
    const NodeId r = random_member(rng, tree);
    // Random members (r's branch and parent included), the collector, ids
    // not in the tree, and sometimes the path above r's parent. Keys are
    // the slack or a small integer, so equal keys are common.
    Keys keys;
    const auto len = rng.below(12);
    for (std::uint32_t i = 0; i < len; ++i) {
      const NodeId v = rng.bernoulli(0.1)    ? kCollectorId
                       : rng.bernoulli(0.05) ? NodeId{100000}
                                             : random_member(rng, tree);
      keys.emplace_back(rng.bernoulli(0.5) || !tree.contains(v)
                            ? static_cast<Capacity>(rng.below(3))
                            : tree.slack(v),
                        v);
    }
    if (rng.bernoulli(0.3))
      for (NodeId v : path_above_parent(tree, r))
        keys.emplace_back(static_cast<Capacity>(rng.below(3)), v);
    const auto path = path_above_parent(tree, r);
    const auto branch = tree.branch_nodes(r);
    std::size_t testable = 0, failing = 0;
    for (const auto& [key, v] : keys) {
      if (!tree.contains(v) || v == tree.parent(r) ||
          std::find(branch.begin(), branch.end(), v) != branch.end())
        continue;
      ++testable;
      if (std::find(path.begin(), path.end(), v) != path.end())
        ++on_path;
      else if (fails_own_hop(tree, r, v))
        ++failing;
    }
    own_hop_fails += failing;
    if (testable > 0 && failing == testable) ++all_fail_own_hop;
    const std::size_t got = expect_same_move(tree, r, keys, where);
    if (::testing::Test::HasFailure()) return;
    if (got < keys.size()) ++moved; else ++failed;
  }
  EXPECT_GT(moved, 0u) << "seed " << seed;
  EXPECT_GT(failed, 0u) << "seed " << seed;
  EXPECT_GT(on_path, 0u) << "seed " << seed;
  if (identity || tree.uniform_identity()) {
    EXPECT_GT(own_hop_fails, 0u) << "seed " << seed;
    EXPECT_GT(all_fail_own_hop, 0u) << "seed " << seed;
  }
}

TEST_P(MoveBranchRanked, ListsThatFailTheirOwnHopOrTestNothing) {
  const auto [seed, identity] = GetParam();
  Rng rng{seed};
  MonitoringTree tree = random_tree(rng, seed, 30, identity);
  std::size_t relinked = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const std::string where = "seed " + std::to_string(seed) + " identity " +
                              std::to_string(identity) + " trial " +
                              std::to_string(trial);
    const NodeId r = random_member(rng, tree);
    const auto path = path_above_parent(tree, r);
    // Every off-path target that fails its own hop: the ranked move sorts
    // none of them on an identity tree, yet must fail and relink r at the
    // back of its parent's child list as the sorted call does.
    Keys failing;
    if (tree.uniform_identity())
      for (NodeId v : tree.members())
        if (v != tree.parent(r) && !tree.in_subtree(v, r) &&
            std::find(path.begin(), path.end(), v) == path.end() &&
            fails_own_hop(tree, r, v))
          failing.emplace_back(static_cast<Capacity>(rng.below(3)), v);
    if (!failing.empty()) {
      const TreeImage before = capture(tree);
      EXPECT_EQ(expect_same_move(tree, r, failing, where), failing.size());
      if (capture(tree) != before) ++relinked;
    }
    // No testable target: r's branch, its parent, an absent id.
    Keys untestable;
    for (NodeId v : tree.branch_nodes(r)) untestable.emplace_back(tree.slack(v), v);
    untestable.emplace_back(0.0, tree.parent(r));
    untestable.emplace_back(1.0, NodeId{100000});
    const TreeImage before = capture(tree);
    EXPECT_EQ(expect_same_move(tree, r, untestable, where), untestable.size());
    EXPECT_EQ(capture(tree), before) << where;
    Keys empty;
    EXPECT_EQ(tree.move_branch_ranked(r, empty), 0u);
    EXPECT_EQ(capture(tree), before) << where;
    if (::testing::Test::HasFailure()) return;
  }
  // r moves to the back of its parent's child list only if it had a
  // sibling after it, so some lists relink without a visible change.
  if (tree.uniform_identity()) {
    EXPECT_GT(relinked, 0u) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MoveBranchRanked,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 21),
                       ::testing::Bool()));

}  // namespace
}  // namespace remo
