#include "core/monitoring_system.h"

#include <gtest/gtest.h>

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

SystemModel make_system(std::size_t n = 12, Capacity cap = 150.0) {
  SystemModel s(n, cap, kCost);
  s.set_collector_capacity(600.0);
  for (NodeId id = 1; id <= n; ++id) s.set_observable(id, {0, 1, 2, 3});
  return s;
}

MonitoringTask task(std::vector<AttrId> attrs, std::vector<NodeId> nodes) {
  MonitoringTask t;
  t.attrs = std::move(attrs);
  t.nodes = std::move(nodes);
  return t;
}

TEST(MonitoringSystem, EmptySystemHasEmptyTopology) {
  MonitoringSystem ms(make_system());
  EXPECT_EQ(ms.topology().num_trees(), 0u);
  EXPECT_EQ(ms.status().tasks, 0u);
  EXPECT_DOUBLE_EQ(ms.status().coverage, 1.0);
}

TEST(MonitoringSystem, AddTaskPlansLazily) {
  MonitoringSystem ms(make_system());
  const TaskId id = ms.add_task(task({0, 1}, {1, 2, 3, 4}));
  EXPECT_GT(id, 0u);
  const auto status = ms.status();
  EXPECT_EQ(status.tasks, 1u);
  EXPECT_EQ(status.pairs, 8u);
  EXPECT_EQ(status.collected, 8u);
  EXPECT_TRUE(ms.topology().validate(ms.system()));
}

TEST(MonitoringSystem, RemoveTaskShrinksPairs) {
  MonitoringSystem ms(make_system());
  const TaskId a = ms.add_task(task({0}, {1, 2}));
  ms.add_task(task({1}, {3, 4}));
  EXPECT_EQ(ms.status().pairs, 4u);
  EXPECT_TRUE(ms.remove_task(a));
  EXPECT_FALSE(ms.remove_task(a));
  EXPECT_EQ(ms.status(1.0).pairs, 2u);
  EXPECT_EQ(ms.status().tasks, 1u);
}

TEST(MonitoringSystem, ModifyTaskReflected) {
  MonitoringSystem ms(make_system());
  const TaskId id = ms.add_task(task({0}, {1, 2}));
  (void)ms.topology();
  MonitoringTask t = task({0, 1, 2}, {1, 2});
  t.id = id;
  EXPECT_TRUE(ms.modify_task(t));
  EXPECT_EQ(ms.status(5.0).pairs, 6u);
  MonitoringTask unknown = task({0}, {1});
  unknown.id = 999;
  EXPECT_FALSE(ms.modify_task(unknown));
}

TEST(MonitoringSystem, TaskChurnGoesThroughAdaptation) {
  MonitoringSystem ms(make_system());
  ms.add_task(task({0, 1}, {1, 2, 3, 4, 5, 6}));
  (void)ms.topology(0.0);
  const auto before = ms.status(0.0);
  ms.add_task(task({2}, {7, 8, 9}));
  const auto after = ms.status(10.0);
  EXPECT_GT(after.pairs, before.pairs);
  EXPECT_GE(after.adaptations, 1u);
  EXPECT_GT(after.adaptation_messages, 0u);
  EXPECT_TRUE(ms.topology().validate(ms.system()));
}

TEST(MonitoringSystem, SsdpTasksRewrittenTransparently) {
  MonitoringSystem ms(make_system());
  MonitoringTask t = task({0}, {1, 2, 3, 4, 5, 6, 7, 8});
  t.reliability = ReliabilityMode::kSSDP;
  t.replicas = 2;
  ms.add_task(t);
  const auto status = ms.status();
  EXPECT_EQ(status.tasks, 1u);        // user-visible count unchanged
  EXPECT_EQ(status.pairs, 16u);       // but pairs doubled by replication
  // Replicas must ride different trees.
  const Partition p = ms.topology().partition();
  EXPECT_GE(p.num_sets(), 2u);
  EXPECT_TRUE(ms.topology().validate(ms.system()));
}

TEST(MonitoringSystem, AggregationAwareByDefault) {
  auto sys = make_system(12, 60.0);  // tight: awareness matters
  MonitoringSystemOptions aware;
  MonitoringSystemOptions oblivious;
  oblivious.aggregation_aware = false;
  MonitoringTask t = task({0, 1, 2, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  t.aggregation = AggType::kMax;

  MonitoringSystem a(sys, aware);
  a.add_task(t);
  MonitoringSystem b(sys, oblivious);
  b.add_task(t);
  EXPECT_GE(a.status().collected, b.status().collected);
}

TEST(MonitoringSystem, ExportsAreWellFormed) {
  MonitoringSystem ms(make_system());
  ms.add_task(task({0, 1}, {1, 2, 3}));
  const std::string dot = ms.export_dot();
  const std::string json = ms.export_json();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(json.find("\"forest\""), std::string::npos);
}

TEST(MonitoringSystem, ReplanForcesFreshPlan) {
  MonitoringSystem ms(make_system());
  ms.add_task(task({0, 1, 2}, {1, 2, 3, 4, 5, 6}));
  const auto before = ms.status();
  ms.replan(50.0);
  const auto after = ms.status(50.0);
  EXPECT_EQ(after.pairs, before.pairs);
  EXPECT_EQ(after.collected, before.collected);
  EXPECT_TRUE(ms.topology().validate(ms.system()));
}

// A modify that moves an attribute's weight without changing how many
// attributes carry a funnel or a weight must still replan with the new
// weight, in both directions: every planned tree carries exactly the specs
// derive_attr_specs gives the current tasks.
TEST(MonitoringSystem, ModifyThatMovesAWeightReplansWithTheNewSpecs) {
  MonitoringSystem ms(make_system());
  MonitoringTask a = task({0}, {1, 2, 3, 4});
  a.frequency = 1.0;
  MonitoringTask b = task({1}, {1, 2, 3, 4});
  b.frequency = 2.0;
  a.id = ms.add_task(a);
  ms.add_task(b);
  (void)ms.topology(0.0);
  // attr 0's weight: 0.5, then 0.25, then 0.5 again.
  for (const double frequency : {0.5, 1.0}) {
    a.frequency = frequency;
    ASSERT_TRUE(ms.modify_task(a));
    const Topology& topo = ms.topology(10.0 * frequency);
    const AttrSpecTable want = derive_attr_specs(ms.tasks(), true, true);
    ASSERT_DOUBLE_EQ(want.weight(0), frequency / 2.0);
    std::size_t checked = 0;
    for (const auto& entry : topo.entries()) {
      for (const TreeAttrSpec& spec : entry.tree.attr_specs()) {
        EXPECT_EQ(spec, want.tree_spec(spec.attr))
            << "attr " << spec.attr << " carries weight " << spec.weight
            << " after the modify to frequency " << frequency;
        ++checked;
      }
    }
    EXPECT_EQ(checked, 2u);
  }
}

TEST(MonitoringSystem, StatusIsStableWithoutChanges) {
  MonitoringSystem ms(make_system());
  ms.add_task(task({0}, {1, 2, 3}));
  const auto s1 = ms.status(1.0);
  const auto s2 = ms.status(2.0);
  EXPECT_EQ(s1.collected, s2.collected);
  EXPECT_EQ(s1.adaptations, s2.adaptations);  // no churn, no adaptation
}

}  // namespace
}  // namespace remo
