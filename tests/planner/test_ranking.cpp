// rank_topology_augmentations: the search's one candidate generator — its
// neighbourhood (Definition 3), order, filters and gain estimates.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "common/sorted_vector.h"
#include "planner/planner.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

/// Builds a topology over a partition with controllable starvation: nodes
/// 1..n monitor both attrs 0 and 1; attr 2 lives on starved nodes whose
/// capacity cannot fit anything.
struct RankFixture {
  SystemModel system;
  PairSet pairs;
  Topology topo;

  RankFixture() : system(12, 40.0, kCost), pairs(13) {
    system.set_collector_capacity(1e6);
    for (NodeId n = 1; n <= 8; ++n) {
      system.set_observable(n, {0, 1});
      pairs.add(n, 0);
      pairs.add(n, 1);
    }
    for (NodeId n = 9; n <= 12; ++n) {
      system.set_observable(n, {2});
      system.set_capacity(n, 5.0);  // cannot even send one message
      pairs.add(n, 2);
    }
    PlannerOptions o;
    topo = Planner(system, o).build_for_partition(pairs,
                                                  Partition({{0}, {1}, {2}}));
  }
};

TEST(Ranking, StarvedLoadedMergeOutranksStarvedStarved) {
  RankFixture f;
  // Tree {2} is fully starved; {0} and {1} are loaded and overlap fully.
  const auto ranked = rank_topology_augmentations(
      f.topo, f.pairs, kCost, ConflictConstraints{}, 0, nullptr, true);
  ASSERT_FALSE(ranked.empty());
  // The top candidate must be the {0}+{1} merge: huge overlap AND nothing
  // recoverable from the dead tree {2} (its nodes have no capacity).
  EXPECT_EQ(ranked[0].kind, AugmentKind::kMerge);
  const Partition p = f.topo.partition();
  const auto top_union =
      remo::set_union(p.set(ranked[0].set_a), p.set(ranked[0].set_b));
  EXPECT_EQ(top_union, (std::vector<AttrId>{0, 1}));
}

TEST(Ranking, MustInvolveMaskFiltersCandidates) {
  RankFixture f;
  std::vector<bool> mask(f.topo.entries().size(), false);
  // Allow only operations touching the tree that carries attr 2.
  const Partition p = f.topo.partition();
  for (std::size_t i = 0; i < p.num_sets(); ++i)
    if (set_contains(p.set(i), AttrId{2})) mask[i] = true;
  const auto ranked = rank_topology_augmentations(
      f.topo, f.pairs, kCost, ConflictConstraints{}, 0, &mask, true);
  for (const auto& aug : ranked) {
    const bool touches_2 =
        set_contains(p.set(aug.set_a), AttrId{2}) ||
        (aug.kind == AugmentKind::kMerge &&
         set_contains(p.set(aug.set_b), AttrId{2}));
    EXPECT_TRUE(touches_2);
  }
  EXPECT_LT(ranked.size(),
            rank_topology_augmentations(f.topo, f.pairs, kCost,
                                        ConflictConstraints{}, 0)
                .size());
}

TEST(Ranking, ConflictsExcludeMerges) {
  RankFixture f;
  ConflictConstraints c;
  c.forbid(0, 1);
  const Partition p = f.topo.partition();
  const auto ranked =
      rank_topology_augmentations(f.topo, f.pairs, kCost, c, 0, nullptr, true);
  for (const auto& aug : ranked) {
    if (aug.kind != AugmentKind::kMerge) continue;
    const bool zero_one = set_contains(p.set(aug.set_a), AttrId{0})
                              ? set_contains(p.set(aug.set_b), AttrId{1})
                              : set_contains(p.set(aug.set_a), AttrId{1}) &&
                                    set_contains(p.set(aug.set_b), AttrId{0});
    EXPECT_FALSE(zero_one);
  }
}

TEST(Ranking, TruncationKeepsTopRanked) {
  RankFixture f;
  const auto full = rank_topology_augmentations(f.topo, f.pairs, kCost,
                                                ConflictConstraints{}, 0);
  const auto top2 = rank_topology_augmentations(f.topo, f.pairs, kCost,
                                                ConflictConstraints{}, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].estimated_gain, full[0].estimated_gain);
  EXPECT_EQ(top2[1].estimated_gain, full[1].estimated_gain);
  // Monotone non-increasing gains.
  for (std::size_t i = 1; i < full.size(); ++i)
    EXPECT_LE(full[i].estimated_gain, full[i - 1].estimated_gain);
}

TEST(Ranking, StarvationBonusToggle) {
  // With the bonus off, the starved/loaded distinction vanishes: the
  // estimates reduce to the plain overlap formula.
  RankFixture f;
  const auto plain = rank_topology_augmentations(
      f.topo, f.pairs, kCost, ConflictConstraints{}, 0, nullptr, false);
  const Partition p = f.topo.partition();
  for (const auto& aug : plain) {
    if (aug.kind != AugmentKind::kMerge) continue;
    EXPECT_DOUBLE_EQ(aug.estimated_gain,
                     2.0 * kCost.per_message *
                         static_cast<double>(intersection_size(
                             f.pairs.nodes_with_any(p.set(aug.set_a)),
                             f.pairs.nodes_with_any(p.set(aug.set_b)))));
  }
}

/// Every candidate's gain, recomputed from the file-comment formulas of
/// partition/augmentation.h over PairSet::nodes_with / nodes_with_any,
/// plus the recoverable-starvation term.
double expected_gain(const Topology& topo, const PairSet& pairs,
                     const Augmentation& aug) {
  const Partition p = topo.partition();
  const auto& e = topo.entries();
  auto starved = [&](std::size_t i) {
    return static_cast<double>(e[i].offered_pairs - e[i].collected_pairs);
  };
  if (aug.kind == AugmentKind::kMerge) {
    const std::size_t shared =
        intersection_size(pairs.nodes_with_any(p.set(aug.set_a)),
                          pairs.nodes_with_any(p.set(aug.set_b)));
    const double recoverable =
        std::min(starved(aug.set_a) + starved(aug.set_b),
                 static_cast<double>(e[aug.set_a].collected_pairs +
                                     e[aug.set_b].collected_pairs));
    return 2.0 * kCost.per_message * static_cast<double>(shared) +
           kCost.per_message * recoverable;
  }
  const auto n_attr = pairs.nodes_with(aug.attr);
  const auto rest = set_difference(p.set(aug.set_a), std::vector<AttrId>{aug.attr});
  const std::size_t both = intersection_size(n_attr, pairs.nodes_with_any(rest));
  return kCost.per_value * static_cast<double>(n_attr.size()) -
         2.0 * kCost.per_message * static_cast<double>(both) +
         kCost.per_message * starved(aug.set_a);
}

TEST(Ranking, GainsMatchTheFormulasUnderRandomMasks) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng{seed};
    const std::size_t n = 20 + rng.below(20);
    const AttrId universe = static_cast<AttrId>(6 + rng.below(8));
    // Capacity-bound, so trees starve and the starvation term is live.
    SystemModel system(n, 25.0 + 10.0 * static_cast<double>(rng.below(4)), kCost);
    system.set_collector_capacity(40.0 * static_cast<double>(n));
    PairSet pairs(n + 1);
    for (NodeId id = 1; id <= n; ++id) {
      std::vector<AttrId> attrs;
      for (AttrId a = 0; a < universe; ++a)
        if (rng.bernoulli(0.4)) attrs.push_back(a);
      for (AttrId a : attrs) pairs.add(id, a);
      system.set_observable(id, std::move(attrs));
    }
    const std::size_t groups = 1 + rng.below(5);
    std::vector<std::vector<AttrId>> sets(groups);
    for (AttrId a : pairs.attribute_universe()) sets[rng.below(groups)].push_back(a);
    const Topology topo =
        Planner(system, PlannerOptions{}).build_for_partition(pairs, Partition(sets));
    const Partition p = topo.partition();
    const std::size_t k = p.num_sets();
    std::vector<bool> mask(k);
    for (std::size_t i = 0; i < k; ++i) mask[i] = rng.bernoulli(0.5);

    const auto ranked = rank_topology_augmentations(
        topo, pairs, kCost, ConflictConstraints{}, 0, &mask, true);
    std::size_t expected = 0;  // neighbours touching a masked set
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = i + 1; j < k; ++j) expected += mask[i] || mask[j];
      if (mask[i] && p.set(i).size() >= 2) expected += p.set(i).size();
    }
    EXPECT_EQ(ranked.size(), expected) << "seed " << seed;
    for (std::size_t r = 0; r < ranked.size(); ++r) {
      const auto& aug = ranked[r];
      EXPECT_TRUE(mask[aug.set_a] ||
                  (aug.kind == AugmentKind::kMerge && mask[aug.set_b]))
          << "seed " << seed;
      EXPECT_DOUBLE_EQ(aug.estimated_gain, expected_gain(topo, pairs, aug))
          << "seed " << seed << " candidate " << r;
      if (r > 0) {
        EXPECT_LE(aug.estimated_gain, ranked[r - 1].estimated_gain);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The neighbourhood of Definition 3 and the list's order, conflict filter
// and truncation, on small hand-checked inputs.

/// Nodes 1-4 monitor attr 0; nodes 3-6 monitor attr 1; node 7 monitors 2.
PairSet overlap_pairs() {
  PairSet p(8);
  for (NodeId n = 1; n <= 4; ++n) p.add(n, 0);
  for (NodeId n = 3; n <= 6; ++n) p.add(n, 1);
  p.add(7, 2);
  return p;
}

/// A topology laid out over `partition` with ample capacity: every offered
/// pair is collected, so the ranking sees no starvation.
Topology ample_topology(const PairSet& pairs, const Partition& partition) {
  const std::size_t n = pairs.num_vertices() - 1;
  SystemModel system(n, 1e6, kCost);
  system.set_collector_capacity(1e6);
  for (NodeId id = 1; id <= n; ++id) system.set_observable(id, pairs.attrs_of(id));
  return Planner(system, PlannerOptions{}).build_for_partition(pairs, partition);
}

std::vector<Augmentation> rank_all(const Topology& topo, const PairSet& pairs,
                                   const ConflictConstraints& conflicts = {},
                                   std::size_t max_candidates = 0) {
  return rank_topology_augmentations(topo, pairs, kCost, conflicts, max_candidates);
}

/// The partition-set index holding `attr`.
std::size_t set_with(const Topology& topo, AttrId attr) {
  return topo.partition().set_of(attr);
}

TEST(Augmentation, RankedListSortedByGain) {
  const auto pairs = overlap_pairs();
  const Topology topo = ample_topology(pairs, Partition({{0}, {1}, {2}}));
  const auto ranked = rank_all(topo, pairs);
  // 3 merges possible, no splits (all singleton sets).
  ASSERT_EQ(ranked.size(), 3u);
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_GE(ranked[i - 1].estimated_gain, ranked[i].estimated_gain);
  EXPECT_EQ(ranked[0].kind, AugmentKind::kMerge);
  // The top candidate must be the 0-1 merge (the only one with overlap).
  const std::size_t s0 = set_with(topo, 0), s1 = set_with(topo, 1);
  EXPECT_EQ(ranked[0].set_a, std::min(s0, s1));
  EXPECT_EQ(ranked[0].set_b, std::max(s0, s1));
}

TEST(Augmentation, IncludesSplitsForMultiAttrSets) {
  const auto pairs = overlap_pairs();
  const Topology topo = ample_topology(pairs, Partition({{0, 1}, {2}}));
  const auto ranked = rank_all(topo, pairs);
  // 1 merge + 2 splits.
  ASSERT_EQ(ranked.size(), 3u);
  std::size_t splits = 0;
  for (const auto& a : ranked) splits += a.kind == AugmentKind::kSplit;
  EXPECT_EQ(splits, 2u);
}

TEST(Augmentation, ConflictsFilterMerges) {
  const auto pairs = overlap_pairs();
  const Topology topo = ample_topology(pairs, Partition({{0}, {1}, {2}}));
  ConflictConstraints c;
  c.forbid(0, 1);
  const auto ranked = rank_all(topo, pairs, c);
  const std::size_t s0 = set_with(topo, 0), s1 = set_with(topo, 1);
  for (const auto& a : ranked) {
    if (a.kind != AugmentKind::kMerge) continue;
    EXPECT_FALSE(a.set_a == std::min(s0, s1) && a.set_b == std::max(s0, s1));
  }
  EXPECT_EQ(ranked.size(), 2u);
}

TEST(Augmentation, MaxCandidatesTruncates) {
  const auto pairs = overlap_pairs();
  const Topology topo = ample_topology(pairs, Partition({{0}, {1}, {2}}));
  EXPECT_EQ(rank_all(topo, pairs, {}, 1).size(), 1u);
}

TEST(Augmentation, NeighborCountMatchesDefinition3) {
  // For k sets with sizes s_i, neighbors = C(k,2) merges + Σ_{s_i>=2} s_i
  // splits.
  const auto pairs = overlap_pairs();
  const Topology topo = ample_topology(pairs, Partition({{0, 1}, {2}}));
  EXPECT_EQ(rank_all(topo, pairs).size(), 1u /*merge*/ + 2u /*splits of {0,1}*/);
}

TEST(Augmentation, EmptyPartitionYieldsNothing) {
  EXPECT_TRUE(rank_all(Topology{}, PairSet(3)).empty());
}

TEST(PartitionProperty, NeighborCountMatchesClosedForm) {
  // |neighbors(P)| = C(k,2) merges + Σ_{|A_i| >= 2} |A_i| splits.
  Rng rng{77};
  PairSet pairs(30);
  for (NodeId n = 1; n < 30; ++n)
    for (AttrId a = 0; a < 12; ++a)
      if (rng.bernoulli(0.4)) pairs.add(n, a);
  const std::vector<AttrId> universe = pairs.attribute_universe();

  for (int trial = 0; trial < 20; ++trial) {
    // Random partition: assign each attr to one of g groups.
    const std::size_t g = 1 + rng.below(5);
    std::vector<std::vector<AttrId>> groups(g);
    for (AttrId a : universe) groups[rng.below(g)].push_back(a);
    Partition p(groups);

    const std::size_t k = p.num_sets();
    std::size_t expected = k * (k - 1) / 2;
    for (std::size_t i = 0; i < k; ++i)
      if (p.set(i).size() >= 2) expected += p.set(i).size();

    EXPECT_EQ(rank_all(ample_topology(pairs, p), pairs).size(), expected)
        << p.to_string();
  }
}

TEST(PartitionProperty, ApplyingAnyNeighborPreservesUniverse) {
  PairSet pairs(10);
  for (NodeId n = 1; n < 10; ++n)
    for (AttrId a = 0; a < 8; ++a) pairs.add(n, a);
  std::vector<AttrId> universe;
  for (AttrId a = 0; a < 8; ++a) universe.push_back(a);
  const Topology topo =
      ample_topology(pairs, Partition({{0, 1, 2}, {3}, {4, 5, 6, 7}}));
  const Partition p = topo.partition();

  for (const auto& aug : rank_all(topo, pairs)) {
    const Partition q = apply(p, aug);
    EXPECT_TRUE(q.valid_over(universe));
    // A merge shrinks the set count by one; a split grows it by one.
    if (aug.kind == AugmentKind::kMerge)
      EXPECT_EQ(q.num_sets(), p.num_sets() - 1);
    else
      EXPECT_EQ(q.num_sets(), p.num_sets() + 1);
  }
}

}  // namespace
}  // namespace remo
