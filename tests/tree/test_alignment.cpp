// Arena layout contract tests (DESIGN.md §15): count rows are padded to
// simd::kU32Lanes elements and allocated kAlign-aligned, and that contract
// survives growth reallocation and odd attribute counts (stride not a
// multiple of the vector width).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/simd.h"
#include "tree/monitoring_tree.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

std::vector<TreeAttrSpec> identity_specs(std::size_t n) {
  std::vector<TreeAttrSpec> specs;
  for (std::size_t m = 0; m < n; ++m)
    specs.push_back(TreeAttrSpec{static_cast<AttrId>(m), FunnelSpec{}, 1.0});
  return specs;
}

bool aligned(const std::uint32_t* p) {
  return reinterpret_cast<std::uintptr_t>(p) % simd::kAlign == 0;
}

TEST(ArenaAlignment, PaddedCountRoundsUpToLaneMultiples) {
  EXPECT_EQ(simd::padded_count(0), 0u);
  EXPECT_EQ(simd::padded_count(1), simd::kU32Lanes);
  EXPECT_EQ(simd::padded_count(simd::kU32Lanes - 1), simd::kU32Lanes);
  EXPECT_EQ(simd::padded_count(simd::kU32Lanes), simd::kU32Lanes);
  EXPECT_EQ(simd::padded_count(simd::kU32Lanes + 1), 2 * simd::kU32Lanes);
}

TEST(ArenaAlignment, RowStrideIsPaddedAndViewsKeepLogicalWidth) {
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{5},
                        std::size_t{17}, std::size_t{33}}) {
    MonitoringTree tree(identity_specs(n), 1e9, kCost);
    EXPECT_EQ(tree.row_stride(), simd::padded_count(n)) << "attrs=" << n;
    EXPECT_GE(tree.row_stride(), tree.num_attrs());
    // Public views stay num_attrs()-wide; padding is arena-internal.
    EXPECT_EQ(tree.in_counts(kCollectorId).size(), n);
    EXPECT_EQ(tree.local_counts(kCollectorId).size(), n);
    EXPECT_EQ(tree.out_counts(kCollectorId).size(), n);
  }
}

// Growth reallocates the aligned vectors repeatedly (no reserve): every
// row must stay on a kAlign boundary afterwards, per the REMO_DCHECK in
// alloc_slot.
TEST(ArenaAlignment, EveryRowStaysAlignedAcrossGrowth) {
  for (std::size_t n : {std::size_t{3}, std::size_t{17}}) {
    MonitoringTree tree(identity_specs(n), 1e9, kCost);
    std::vector<std::uint32_t> local(n, 1);
    for (NodeId v = 1; v <= 200; ++v) {
      const NodeId parent = v <= 3 ? kCollectorId : static_cast<NodeId>(v / 3);
      ASSERT_TRUE(tree.try_attach(BuildItem{v, local, 1e9}, parent));
    }
    EXPECT_TRUE(aligned(tree.in_counts(kCollectorId).data()));
    for (NodeId v : tree.members()) {
      EXPECT_TRUE(aligned(tree.in_counts(v).data())) << "attrs=" << n << " v=" << v;
      EXPECT_TRUE(aligned(tree.local_counts(v).data()));
    }
  }
}

// Odd widths (stride not a multiple of the vector width before padding):
// the roll-up math must be exactly the naive per-attribute accumulation.
TEST(ArenaAlignment, OddWidthCountsRollUpExactly) {
  const std::size_t n = 5;  // padded to 16: 11 padding lanes in play
  MonitoringTree tree(identity_specs(n), 1e9, kCost);
  std::vector<std::uint32_t> expected_root(n, 0);
  for (NodeId v = 1; v <= 40; ++v) {
    std::vector<std::uint32_t> local(n);
    for (std::size_t m = 0; m < n; ++m)
      local[m] = static_cast<std::uint32_t>((v + m) % 4);
    const NodeId parent = v <= 2 ? kCollectorId : static_cast<NodeId>(v / 2);
    ASSERT_TRUE(tree.try_attach(BuildItem{v, local, 1e9}, parent));
    for (std::size_t m = 0; m < n; ++m) expected_root[m] += local[m];
  }
  const CountSpan root_in = tree.in_counts(kCollectorId);
  double expected_payload_sum = 0.0;
  for (std::size_t m = 0; m < n; ++m) {
    EXPECT_EQ(root_in[m], expected_root[m]) << "m=" << m;
    expected_payload_sum += expected_root[m];
  }
  // Members' payloads are their subtree totals; spot-check the chain head.
  double direct = 0.0;
  for (std::size_t m = 0; m < n; ++m)
    direct += static_cast<double>(tree.in_counts(1)[m]);
  EXPECT_DOUBLE_EQ(tree.payload(1), direct);
  // detach_branch hands back logical-width locals, not padded rows.
  MonitoringTree scratch(identity_specs(n), 1e9, kCost);
  ASSERT_TRUE(scratch.try_attach(BuildItem{7, {1, 2, 3, 4, 5}, 1e9}, kCollectorId));
  const auto items = scratch.detach_branch(7);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].local, (std::vector<std::uint32_t>{1, 2, 3, 4, 5}));
}

TEST(ArenaAlignment, ReserveDoesNotChangeResults) {
  const std::size_t n = 7;
  MonitoringTree plain(identity_specs(n), 1e9, kCost);
  MonitoringTree reserved(identity_specs(n), 1e9, kCost);
  reserved.reserve(64);
  std::vector<std::uint32_t> local(n, 2);
  for (NodeId v = 1; v <= 64; ++v) {
    const NodeId parent = v <= 4 ? kCollectorId : static_cast<NodeId>(v / 4);
    ASSERT_TRUE(plain.try_attach(BuildItem{v, local, 1e9}, parent));
    ASSERT_TRUE(reserved.try_attach(BuildItem{v, local, 1e9}, parent));
  }
  EXPECT_EQ(plain.members(), reserved.members());
  EXPECT_EQ(plain.collected_pairs(), reserved.collected_pairs());
  EXPECT_EQ(plain.total_cost(), reserved.total_cost());
  for (NodeId v : plain.members()) {
    EXPECT_EQ(plain.parent(v), reserved.parent(v));
    EXPECT_EQ(std::vector<std::uint32_t>(plain.in_counts(v).begin(),
                                         plain.in_counts(v).end()),
              std::vector<std::uint32_t>(reserved.in_counts(v).begin(),
                                         reserved.in_counts(v).end()));
  }
}

TEST(ArenaAlignment, UniformIdentityFlagTracksSpecs) {
  EXPECT_TRUE(MonitoringTree(identity_specs(4), 1e9, kCost).uniform_identity());
  auto topk = identity_specs(4);
  topk[2].funnel = FunnelSpec{AggType::kTopK, 3};
  EXPECT_FALSE(MonitoringTree(topk, 1e9, kCost).uniform_identity());
  auto weighted = identity_specs(4);
  weighted[1].weight = 0.5;
  EXPECT_FALSE(MonitoringTree(weighted, 1e9, kCost).uniform_identity());
  // kDistinct uses the holistic (identity) bound — still the fast path.
  auto distinct = identity_specs(4);
  distinct[0].funnel = FunnelSpec{AggType::kDistinct};
  EXPECT_TRUE(MonitoringTree(distinct, 1e9, kCost).uniform_identity());
}

}  // namespace
}  // namespace remo
