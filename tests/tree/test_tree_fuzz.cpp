// Randomized operation-sequence fuzzing of MonitoringTree: arbitrary
// interleavings of attach / move_branch / detach_branch / update_local
// must keep the incremental bookkeeping exactly consistent with a full
// bottom-up recomputation (validate()), across funnel types and weights.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "tree/monitoring_tree.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

struct FuzzParams {
  std::uint64_t seed;
  AggType agg;
  double weight;
  Capacity avail;
};

// Names each case from its fields: gtest's default byte dump would put
// the struct's uninitialized padding into the test name.
void PrintTo(const FuzzParams& p, std::ostream* os) {
  *os << "seed=" << p.seed << " " << to_string(p.agg)
      << " weight=" << p.weight << " avail=" << p.avail;
}

class TreeFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(TreeFuzz, RandomOpSequenceKeepsInvariants) {
  const auto param = GetParam();
  Rng rng{param.seed};
  std::vector<TreeAttrSpec> attrs{
      {0, FunnelSpec{param.agg, 3}, param.weight},
      {1, FunnelSpec{AggType::kHolistic}, 1.0},
  };
  MonitoringTree tree(attrs, /*collector_avail=*/500.0, kCost);

  NodeId next_id = 1;
  std::vector<NodeId> members;  // mirror of tree membership
  std::size_t ops_applied = 0;

  for (int step = 0; step < 300; ++step) {
    const auto op = rng.below(10);
    if (op < 4 || members.empty()) {
      // Attach a new node under a random vertex.
      BuildItem item{next_id,
                     {static_cast<std::uint32_t>(rng.below(2)),
                      static_cast<std::uint32_t>(rng.below(2))},
                     param.avail * rng.uniform(0.5, 1.5)};
      if (item.local_total() == 0) item.local[0] = 1;
      const NodeId parent =
          members.empty() ? kCollectorId
                          : (rng.bernoulli(0.3)
                                 ? kCollectorId
                                 : members[rng.below(members.size())]);
      if (tree.can_attach(item, parent)) {
        tree.attach(item, parent);
        members.push_back(next_id);
        ++next_id;
        ++ops_applied;
      }
    } else if (op < 7) {
      // Move a random branch under a random target.
      const NodeId r = members[rng.below(members.size())];
      const NodeId target = rng.bernoulli(0.2)
                                ? kCollectorId
                                : members[rng.below(members.size())];
      if (target != r && tree.contains(r) && tree.contains(target) &&
          !tree.in_subtree(target, r) && tree.parent(r) != target) {
        if (tree.move_branch(r, target)) ++ops_applied;
      }
    } else if (op < 8) {
      // Update a random member's local counts (best effort).
      const NodeId n = members[rng.below(members.size())];
      std::vector<std::uint32_t> counts{
          static_cast<std::uint32_t>(rng.below(3)),
          static_cast<std::uint32_t>(rng.below(3))};
      if (tree.update_local(n, counts)) ++ops_applied;
    } else {
      // Detach a random branch entirely.
      const NodeId r = members[rng.below(members.size())];
      const auto removed = tree.detach_branch(r);
      for (const auto& item : removed)
        members.erase(std::find(members.begin(), members.end(), item.id));
      ++ops_applied;
    }
    ASSERT_TRUE(tree.validate()) << "step " << step << " seed " << param.seed;
    ASSERT_EQ(tree.size(), members.size()) << "step " << step;
  }
  // The sequence must have actually exercised the tree.
  EXPECT_GT(ops_applied, 50u);
}

INSTANTIATE_TEST_SUITE_P(
    Mix, TreeFuzz,
    ::testing::Values(FuzzParams{1, AggType::kHolistic, 1.0, 60.0},
                      FuzzParams{2, AggType::kHolistic, 1.0, 200.0},
                      FuzzParams{3, AggType::kSum, 1.0, 60.0},
                      FuzzParams{4, AggType::kMax, 0.5, 80.0},
                      FuzzParams{5, AggType::kTopK, 1.0, 100.0},
                      FuzzParams{6, AggType::kTopK, 0.25, 50.0},
                      FuzzParams{7, AggType::kDistinct, 1.0, 70.0},
                      FuzzParams{8, AggType::kHolistic, 0.1, 40.0}));

}  // namespace
}  // namespace remo
