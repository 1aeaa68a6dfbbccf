// Property sweep over partitions: random operation sequences preserve
// partition validity. The neighboring-solution properties of Definition 3
// run against the candidate generator (tests/planner/test_ranking.cpp).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "partition/partition.h"

namespace remo {
namespace {

class PartitionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionFuzz, RandomMergeSplitSequencesStayValid) {
  Rng rng{GetParam()};
  std::vector<AttrId> universe;
  for (AttrId a = 0; a < 20; ++a) universe.push_back(a);
  Partition p = Partition::singleton(universe);

  for (int step = 0; step < 200; ++step) {
    const bool can_merge = p.num_sets() >= 2;
    bool can_split = false;
    for (std::size_t i = 0; i < p.num_sets(); ++i)
      if (p.set(i).size() >= 2) can_split = true;

    if ((rng.bernoulli(0.5) && can_merge) || !can_split) {
      if (!can_merge) continue;
      auto i = rng.below(p.num_sets());
      auto j = rng.below(p.num_sets());
      if (i == j) continue;
      p.merge(i, j);
    } else {
      // Pick a splittable set.
      std::size_t i = rng.below(p.num_sets());
      while (p.set(i).size() < 2) i = rng.below(p.num_sets());
      const auto& set = p.set(i);
      p.split(i, set[rng.below(set.size())]);
    }
    ASSERT_TRUE(p.valid_over(universe)) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionFuzz,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace remo
