#include "partition/augmentation.h"

#include <gtest/gtest.h>

#include "common/sorted_vector.h"
#include "task/pair_set.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

PairSet overlap_pairs() {
  // Nodes 1-4 monitor attr 0; nodes 3-6 monitor attr 1; node 7 monitors 2.
  PairSet p(8);
  for (NodeId n = 1; n <= 4; ++n) p.add(n, 0);
  for (NodeId n = 3; n <= 6; ++n) p.add(n, 1);
  p.add(7, 2);
  return p;
}

TEST(Augmentation, MergeGainScalesWithSharedNodes) {
  const auto pairs = overlap_pairs();
  const auto shared = [&](AttrId a, AttrId b) {
    return intersection_size(pairs.nodes_with(a), pairs.nodes_with(b));
  };
  // attrs 0 and 1 share nodes {3,4}: gain 2*C*2 = 40.
  EXPECT_DOUBLE_EQ(estimate_merge_gain(shared(0, 1), kCost), 40.0);
  // attrs 0 and 2 share nothing.
  EXPECT_DOUBLE_EQ(estimate_merge_gain(shared(0, 2), kCost), 0.0);
}

TEST(Augmentation, SplitGainBalancesReliefAndOverhead) {
  const auto pairs = overlap_pairs();
  // Splitting attr 1 out of {0,1}: relieved a*|N_1| = 4; shared nodes with
  // the rest ({3,4}) pay 2*C each = 40 overhead. Net -36.
  const auto n1 = pairs.nodes_with(1);
  EXPECT_DOUBLE_EQ(
      estimate_split_gain(n1.size(), intersection_size(n1, pairs.nodes_with(0)), kCost),
      4.0 - 40.0);
}

TEST(Augmentation, ApplyMergeAndSplit) {
  Partition p({{0}, {1}, {2}});
  Augmentation m{AugmentKind::kMerge, 0, 1, 0, 0.0};
  const auto merged = apply(p, m);
  EXPECT_EQ(merged, Partition({{0, 1}, {2}}));
  Augmentation s{AugmentKind::kSplit, 0, 0, 1, 0.0};
  EXPECT_EQ(apply(merged, s), Partition({{0}, {1}, {2}}));
}

}  // namespace
}  // namespace remo
