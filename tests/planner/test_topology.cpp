#include "planner/topology.h"

#include <gtest/gtest.h>

#include "planner/tree_build_cache.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

/// n nodes, every node observes+monitors attrs [0, attrs).
struct Fixture {
  SystemModel system;
  PairSet pairs;
  TreeBuildCache cache;

  Fixture(std::size_t n, std::size_t attrs, Capacity node_cap,
          Capacity collector_cap)
      : system(n, node_cap, kCost), pairs(n + 1) {
    system.set_collector_capacity(collector_cap);
    for (NodeId id = 1; id <= n; ++id) {
      std::vector<AttrId> a;
      for (AttrId x = 0; x < attrs; ++x) {
        a.push_back(x);
        pairs.add(id, x);
      }
      system.set_observable(id, a);
    }
  }
};

TreeBuildOptions adaptive() {
  TreeBuildOptions o;
  o.scheme = TreeScheme::kAdaptive;
  return o;
}

TEST(Topology, SingletonPartitionBuildsOneTreePerAttr) {
  Fixture f(10, 3, 1e6, 1e6);
  auto topo = build_topology(f.system, f.pairs, Partition::singleton({0, 1, 2}),
                             AttrSpecTable{}, AllocationScheme::kOrdered, adaptive(),
                             f.cache);
  EXPECT_EQ(topo.num_trees(), 3u);
  EXPECT_EQ(topo.total_pairs(), 30u);
  EXPECT_EQ(topo.collected_pairs(), 30u);
  EXPECT_DOUBLE_EQ(topo.coverage(), 1.0);
  EXPECT_TRUE(topo.validate(f.system));
}

TEST(Topology, OneSetPartitionBuildsOneTree) {
  Fixture f(10, 3, 1e6, 1e6);
  auto topo = build_topology(f.system, f.pairs, Partition::one_set({0, 1, 2}),
                             AttrSpecTable{}, AllocationScheme::kOrdered, adaptive(),
                             f.cache);
  EXPECT_EQ(topo.num_trees(), 1u);
  EXPECT_EQ(topo.collected_pairs(), 30u);
}

TEST(Topology, GlobalCapacityNeverExceeded) {
  // Tight capacities force partial coverage; the invariant must hold.
  Fixture f(30, 4, 60.0, 120.0);
  for (auto alloc : {AllocationScheme::kUniform, AllocationScheme::kProportional,
                     AllocationScheme::kOnDemand, AllocationScheme::kOrdered}) {
    TreeBuildCache cache;
    auto topo = build_topology(f.system, f.pairs, Partition::singleton({0, 1, 2, 3}),
                               AttrSpecTable{}, alloc, adaptive(), cache);
    EXPECT_TRUE(topo.validate(f.system)) << to_string(alloc);
    EXPECT_LE(topo.collected_pairs(), topo.total_pairs());
  }
}

TEST(Topology, NodeUsageAggregatesAcrossTrees) {
  Fixture f(5, 2, 1e6, 1e6);
  auto topo = build_topology(f.system, f.pairs, Partition::singleton({0, 1}),
                             AttrSpecTable{}, AllocationScheme::kOrdered, adaptive(),
                             f.cache);
  for (NodeId n = 1; n <= 5; ++n) {
    Capacity sum = 0;
    for (const auto& e : topo.entries())
      if (e.tree.contains(n)) sum += e.tree.usage(n);
    EXPECT_DOUBLE_EQ(topo.node_usage(n), sum);
  }
}

TEST(Topology, PartitionRoundTripsThroughEntries) {
  Fixture f(6, 4, 1e6, 1e6);
  Partition p({{0, 2}, {1}, {3}});
  auto topo = build_topology(f.system, f.pairs, p, AttrSpecTable{},
                             AllocationScheme::kOrdered, adaptive(), f.cache);
  EXPECT_EQ(topo.partition(), p);
}

TEST(Topology, EdgeDiffZeroForIdenticalTopologies) {
  Fixture f(8, 2, 1e6, 1e6);
  auto a = build_topology(f.system, f.pairs, Partition::singleton({0, 1}),
                          AttrSpecTable{}, AllocationScheme::kOrdered, adaptive(),
                          f.cache);
  EXPECT_EQ(edge_diff(a, a), 0u);
}

TEST(Topology, EdgeDiffCountsChangedLinks) {
  Fixture f(8, 2, 1e6, 1e6);
  auto a = build_topology(f.system, f.pairs, Partition::singleton({0, 1}),
                          AttrSpecTable{}, AllocationScheme::kOrdered, adaptive(),
                          f.cache);
  auto b = build_topology(f.system, f.pairs, Partition::one_set({0, 1}),
                          AttrSpecTable{}, AllocationScheme::kOrdered, adaptive(),
                          f.cache);
  // a has 16 member-links (8 nodes x 2 trees), b has 8.
  const std::size_t diff = edge_diff(a, b);
  EXPECT_GT(diff, 0u);
  EXPECT_LE(diff, a.edges().size() + b.edges().size());
}

TEST(Topology, RebuildTreesReplacesVictimsOnly) {
  Fixture f(10, 3, 1e6, 1e6);
  auto topo = build_topology(f.system, f.pairs, Partition::singleton({0, 1, 2}),
                             AttrSpecTable{}, AllocationScheme::kOrdered, adaptive(),
                             f.cache);
  // Merge trees for attrs {0} and {1} into one tree for {0,1}.
  std::size_t v0 = 0, v1 = 0;
  for (std::size_t i = 0; i < topo.entries().size(); ++i) {
    if (topo.entries()[i].attrs == std::vector<AttrId>{0}) v0 = i;
    if (topo.entries()[i].attrs == std::vector<AttrId>{1}) v1 = i;
  }
  auto merged = rebuild_trees(topo, f.system, f.pairs, {v0, v1}, {{0, 1}},
                              AttrSpecTable{}, AllocationScheme::kOrdered, adaptive(),
                              f.cache);
  EXPECT_EQ(merged.num_trees(), 2u);
  EXPECT_EQ(merged.collected_pairs(), 30u);
  EXPECT_TRUE(merged.validate(f.system));
  // The untouched {2} tree is carried over verbatim.
  bool found = false;
  for (const auto& e : merged.entries())
    if (e.attrs == std::vector<AttrId>{2}) found = true;
  EXPECT_TRUE(found);
}

TEST(Topology, MergedTreeSavesMessages) {
  Fixture f(12, 2, 1e6, 1e6);
  auto split = build_topology(f.system, f.pairs, Partition::singleton({0, 1}),
                              AttrSpecTable{}, AllocationScheme::kOrdered, adaptive(),
                              f.cache);
  auto merged = build_topology(f.system, f.pairs, Partition::one_set({0, 1}),
                               AttrSpecTable{}, AllocationScheme::kOrdered, adaptive(),
                               f.cache);
  // Same coverage here, but ONE-SET sends half the messages and therefore
  // pays less per-message overhead in total.
  EXPECT_EQ(split.collected_pairs(), merged.collected_pairs());
  EXPECT_GT(split.total_messages(), merged.total_messages());
  EXPECT_GT(split.total_cost(), merged.total_cost());
}

TEST(Topology, UniformAllocationCapsPerTreeShare) {
  // Two singleton trees; uniform split halves each node's budget per tree.
  // With node capacity 24 and C=10,a=1: half-share 12 affords u=11 (leaf
  // only) — no relaying capacity, so trees stay star-shaped under the
  // collector until it fills. With on-demand, the first tree could use the
  // full 24 for relaying.
  Fixture f(20, 2, 24.0, 80.0);
  TreeBuildCache on_demand_cache;
  auto uniform =
      build_topology(f.system, f.pairs, Partition::singleton({0, 1}),
                     AttrSpecTable{}, AllocationScheme::kUniform, adaptive(),
                     f.cache);
  auto on_demand =
      build_topology(f.system, f.pairs, Partition::singleton({0, 1}),
                     AttrSpecTable{}, AllocationScheme::kOnDemand, adaptive(),
                     on_demand_cache);
  EXPECT_TRUE(uniform.validate(f.system));
  EXPECT_TRUE(on_demand.validate(f.system));
  EXPECT_GE(on_demand.collected_pairs(), uniform.collected_pairs());
}

TEST(Topology, CoverageIsOneForEmptyPairSet) {
  TreeBuildCache cache;
  SystemModel system(3, 100.0, kCost);
  PairSet pairs(4);
  auto topo = build_topology(system, pairs, Partition{}, AttrSpecTable{},
                             AllocationScheme::kOrdered, adaptive(), cache);
  EXPECT_EQ(topo.num_trees(), 0u);
  EXPECT_DOUBLE_EQ(topo.coverage(), 1.0);
}

}  // namespace
}  // namespace remo
