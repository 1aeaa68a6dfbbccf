// One class layout in every build: this executable is compiled with the
// opposite NDEBUG setting from the library it links (see
// tests/CMakeLists.txt), the way an application built in Debug embeds a
// Release library. MonitoringTree, its AttachScan and CountSpan carry the
// same members whether or not REMO_DCHECK_ENABLED, so both sides agree on
// every object: copying a planned topology here and reading its count
// views must neither corrupt the heap nor read the wrong fields.
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "planner/planner.h"

namespace remo {
namespace {

TEST(NdebugLayout, PlannedTopologyCopiesAndReadsAcrossNdebug) {
  const CostModel cost{10.0, 1.0};
  SystemModel system(40, 60.0, cost);
  system.set_collector_capacity(600.0);
  Rng rng{7};
  system.assign_random_attributes(12, 6, rng);
  PairSet pairs(41);
  for (NodeId id = 1; id <= 40; ++id)
    for (AttrId a : system.observable(id)) pairs.add(id, a);

  PlannerOptions o;
  o.num_threads = 1;
  o.max_candidates = 8;
  const Topology planned = Planner(system, o).plan(pairs);
  const Topology copy = planned;  // inline copy constructors, this TU's layout
  ASSERT_EQ(copy.num_trees(), planned.num_trees());
  EXPECT_TRUE(copy.validate(system));
  EXPECT_EQ(copy.collected_pairs(), planned.collected_pairs());

  for (std::size_t i = 0; i < copy.num_trees(); ++i) {
    const MonitoringTree& t = copy.entries()[i].tree;
    const MonitoringTree& ref = planned.entries()[i].tree;
    ASSERT_EQ(t.members(), ref.members());
    std::size_t collected = 0;
    for (NodeId n : t.members()) {
      const CountSpan in = t.in_counts(n);
      const CountSpan ref_in = ref.in_counts(n);
      ASSERT_EQ(in.size(), t.num_attrs());
      EXPECT_TRUE(std::equal(in.begin(), in.end(), ref_in.begin(), ref_in.end()));
      const CountSpan local = t.local_counts(n);
      collected += std::accumulate(local.begin(), local.end(), std::size_t{0});
    }
    EXPECT_EQ(collected, t.collected_pairs());
  }
}

}  // namespace
}  // namespace remo
