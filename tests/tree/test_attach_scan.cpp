// AttachScan is the builder's parent scan: it answers can_attach(item, v)
// for many v with the item's own checks done once. Over 20 seeded random
// trees, on identity and on SUM, MAX and weighted specs, under tight and
// loose budgets, and after attaches, branch moves and detaches have
// recycled arena slots, every query must return what
// MonitoringTree::can_attach returns, with the same blocker: for the
// collector, every member, an absent id and detached ids, and for items
// that are members, cannot afford their own message, have no values, or
// are ordinary.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "tree/monitoring_tree.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};
constexpr NodeId kAbsent = 100000;
constexpr NodeId kUnset = 424242;  // a blocker no query writes

enum class Specs { kIdentity, kSum, kMax, kWeighted };

std::vector<TreeAttrSpec> specs_of(Specs kind) {
  std::vector<TreeAttrSpec> attrs{{0, FunnelSpec{AggType::kHolistic}, 1.0},
                                  {1, FunnelSpec{AggType::kDistinct}, 1.0}};
  switch (kind) {
    case Specs::kIdentity:
      break;
    case Specs::kSum:
      attrs[0].funnel = FunnelSpec{AggType::kSum};
      break;
    case Specs::kMax:
      attrs[1].funnel = FunnelSpec{AggType::kMax};
      break;
    case Specs::kWeighted:
      attrs[0].weight = 0.5;
      break;
  }
  return attrs;
}

BuildItem random_item(Rng& rng, NodeId id, bool tight) {
  return BuildItem{id,
                   {static_cast<std::uint32_t>(rng.below(4)),
                    static_cast<std::uint32_t>(rng.below(4))},
                   static_cast<Capacity>(tight ? 15 + rng.below(35)
                                               : 300 + rng.below(200))};
}

NodeId random_vertex(Rng& rng, const MonitoringTree& t) {
  const auto& members = t.members();
  if (members.empty() || rng.bernoulli(0.15)) return kCollectorId;
  return members[rng.below(members.size())];
}

/// How the queries came out, so a seed that never reaches a case fails.
struct Tally {
  std::size_t feasible = 0, at_parent = 0, at_ancestor = 0, at_collector = 0,
              at_item = 0, silent = 0;
};

void expect_scan_matches_walk(const MonitoringTree& tree, const BuildItem& item,
                              const std::vector<NodeId>& gone, Tally& tally,
                              const std::string& where) {
  const auto scan = tree.attach_scan(item);
  auto check = [&](NodeId v) {
    NodeId b1 = kUnset, b2 = kUnset;
    const bool got = scan.can_attach(v, &b1);
    const bool want = tree.can_attach(item, v, &b2);
    EXPECT_EQ(got, want) << where << " item " << item.id << " parent " << v;
    EXPECT_EQ(b1, b2) << where << " item " << item.id << " parent " << v;
    EXPECT_EQ(scan.can_attach(v), want) << where << " without a blocker";
    if (got) ++tally.feasible;
    else if (b1 == kUnset) ++tally.silent;
    else if (b1 == item.id) ++tally.at_item;
    else if (b1 == kCollectorId) ++tally.at_collector;
    else if (b1 == v) ++tally.at_parent;
    else ++tally.at_ancestor;
  };
  check(kCollectorId);
  for (NodeId v : tree.members()) check(v);
  check(kAbsent);
  for (NodeId v : gone) check(v);
}

class AttachScanProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AttachScanProperty, EveryQueryEqualsCanAttach) {
  const std::uint64_t seed = GetParam();
  Tally tally;
  for (const Specs kind :
       {Specs::kIdentity, Specs::kSum, Specs::kMax, Specs::kWeighted}) {
    for (const bool tight : {true, false}) {
      Rng rng{seed * 8 + static_cast<std::uint64_t>(kind) * 2 + tight};
      MonitoringTree tree(specs_of(kind), tight ? 80.0 : 1e4, kCost);
      ASSERT_EQ(tree.uniform_identity(), kind == Specs::kIdentity);
      NodeId next_id = 1;
      std::vector<BuildItem> detached;
      std::vector<NodeId> gone;  // ids detached and not attached since
      for (int step = 0; step < 60; ++step) {
        const std::string where = "seed " + std::to_string(seed) + " specs " +
                                  std::to_string(static_cast<int>(kind)) +
                                  " tight " + std::to_string(tight) +
                                  " step " + std::to_string(step);
        const auto op = rng.below(10);
        if (op < 5 || tree.size() < 6) {
          tree.try_attach(random_item(rng, next_id++, tight),
                          random_vertex(rng, tree));
        } else if (op < 7) {
          const auto& members = tree.members();
          (void)tree.move_branch(members[rng.below(members.size())],
                                 random_vertex(rng, tree));
        } else if (op < 9) {
          const auto& members = tree.members();
          const NodeId r = members[rng.below(members.size())];
          for (auto& it : tree.detach_branch(r)) {
            gone.push_back(it.id);
            detached.push_back(std::move(it));
          }
        } else if (!detached.empty()) {
          // Re-attach a detached node: it lands in a recycled slot.
          const BuildItem back = detached.back();
          detached.pop_back();
          if (tree.try_attach(back, random_vertex(rng, tree)))
            std::erase(gone, back.id);
        }
        ASSERT_TRUE(tree.validate()) << where;
        if (tree.empty()) continue;

        const auto& members = tree.members();
        const BuildItem member =
            random_item(rng, members[rng.below(members.size())], tight);
        BuildItem self_failing = random_item(rng, next_id, tight);
        self_failing.avail = kCost.per_message - 1.0;
        BuildItem zero_total = random_item(rng, next_id, tight);
        zero_total.local.assign(2, 0);
        const BuildItem ordinary = random_item(rng, next_id, tight);
        for (const BuildItem& item : {member, self_failing, zero_total, ordinary})
          expect_scan_matches_walk(tree, item, gone, tally, where);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GT(tally.feasible, 0u);
  EXPECT_GT(tally.at_parent, 0u);
  EXPECT_GT(tally.at_ancestor, 0u);
  EXPECT_GT(tally.at_collector, 0u);
  EXPECT_GT(tally.at_item, 0u);
  EXPECT_GT(tally.silent, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttachScanProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace remo
