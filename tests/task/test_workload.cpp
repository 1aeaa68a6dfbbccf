#include "task/workload.h"

#include <gtest/gtest.h>

#include "common/sorted_vector.h"

namespace remo {
namespace {

SystemModel make_system(std::size_t n = 50, std::size_t universe = 40,
                        std::size_t per_node = 10, std::uint64_t seed = 5) {
  SystemModel s(n, 100.0);
  Rng rng{seed};
  s.assign_random_attributes(universe, per_node, rng);
  return s;
}

TEST(Workload, MakeTaskRespectsSizes) {
  auto system = make_system();
  WorkloadGenerator gen(system, WorkloadConfig{}, 1);
  const auto t = gen.make_task(4, 10);
  EXPECT_EQ(t.nodes.size(), 10u);
  EXPECT_LE(t.attrs.size(), 4u);
  EXPECT_GE(t.attrs.size(), 1u);
  EXPECT_TRUE(is_sorted_unique(t.attrs));
  EXPECT_TRUE(is_sorted_unique(t.nodes));
  for (NodeId n : t.nodes) {
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, system.num_nodes());
  }
}

TEST(Workload, ObservableDrawYieldsPairs) {
  auto system = make_system();
  WorkloadGenerator gen(system, WorkloadConfig{}, 2);
  TaskManager manager(&system);
  manager.add_task(gen.make_task(5, 15));
  EXPECT_GT(manager.dedup(system.num_vertices()).total_pairs(), 0u);
}

TEST(Workload, SmallTasksWithinConfiguredBounds) {
  auto system = make_system(200);
  WorkloadConfig cfg;
  WorkloadGenerator gen(system, cfg, 3);
  for (const auto& t : gen.small_tasks(20)) {
    EXPECT_LE(t.attrs.size(), cfg.small_attrs_max);
    EXPECT_GE(t.nodes.size(), cfg.small_nodes_min);
    EXPECT_LE(t.nodes.size(), cfg.small_nodes_max);
  }
}

TEST(Workload, LargeTasksStressSomeDimension) {
  auto system = make_system(300, 100, 40);
  WorkloadConfig cfg;
  WorkloadGenerator gen(system, cfg, 4);
  for (const auto& t : gen.large_tasks(20)) {
    const bool many_nodes = t.nodes.size() >= cfg.large_nodes_min;
    const bool many_attrs = t.attrs.size() >= cfg.small_attrs_max;
    EXPECT_TRUE(many_nodes || many_attrs)
        << "nodes=" << t.nodes.size() << " attrs=" << t.attrs.size();
  }
}

TEST(Workload, NodeCountClampedToSystem) {
  auto system = make_system(10);
  WorkloadGenerator gen(system, WorkloadConfig{}, 5);
  EXPECT_EQ(gen.make_task(2, 500).nodes.size(), 10u);
}

TEST(Workload, DeterministicForSeed) {
  auto system = make_system();
  WorkloadGenerator a(system, WorkloadConfig{}, 42);
  WorkloadGenerator b(system, WorkloadConfig{}, 42);
  const auto ta = a.small_tasks(5);
  const auto tb = b.small_tasks(5);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].attrs, tb[i].attrs);
    EXPECT_EQ(ta[i].nodes, tb[i].nodes);
  }
}

TEST(Workload, UpdateBatchModifiesTouchedTasks) {
  auto system = make_system(100, 50, 15);
  WorkloadGenerator gen(system, WorkloadConfig{}, 6);
  TaskManager manager(&system);
  for (auto& t : gen.small_tasks(40)) manager.add_task(std::move(t));
  const PairSet before = manager.dedup(system.num_vertices());
  Rng rng{7};
  const auto stats = apply_update_batch(manager, system, 50, rng, 0.05, 0.5);
  EXPECT_GT(stats.tasks_modified, 0u);
  EXPECT_GT(stats.attrs_replaced, 0u);
  const PairSet after = manager.dedup(system.num_vertices());
  EXPECT_FALSE(diff(before, after).empty());
  EXPECT_EQ(manager.num_tasks(), 40u);  // modification, not add/remove
}

TEST(Workload, UpdateBatchStatsMatchRealTaskChanges) {
  // Regression: stats must count only genuine changes — a redraw that
  // lands back on the original attribute set is a no-op, and
  // attrs_replaced counts old attrs actually gone (old \ new), not the
  // redraw quota. The returned delta must equal the dedup diff exactly.
  auto system = make_system(60, 24, 8, 11);
  WorkloadGenerator gen(system, WorkloadConfig{.attr_universe = 24}, 12);
  TaskManager manager(&system);
  for (auto& t : gen.small_tasks(30)) manager.add_task(std::move(t));

  Rng rng{13};
  for (int round = 0; round < 10; ++round) {
    const std::map<TaskId, MonitoringTask> before_tasks = manager.tasks();
    const PairSet before = manager.dedup(system.num_vertices());
    const auto stats = apply_update_batch(manager, system, 24, rng, 0.1, 0.5);

    std::size_t modified = 0, replaced = 0;
    for (const auto& [id, t] : manager.tasks()) {
      const auto& old = before_tasks.at(id);
      if (old.attrs == t.attrs) continue;
      ++modified;
      replaced += set_difference(old.attrs, t.attrs).size();
    }
    EXPECT_EQ(stats.tasks_modified, modified) << "round=" << round;
    EXPECT_EQ(stats.attrs_replaced, replaced) << "round=" << round;

    const PairSetDelta expected = diff(before, manager.dedup(system.num_vertices()));
    EXPECT_EQ(stats.delta.pairs.added, expected.added) << "round=" << round;
    EXPECT_EQ(stats.delta.pairs.removed, expected.removed) << "round=" << round;
  }
}

TEST(Workload, UpdateBatchPicksAtLeastOneNodeOnTinySystems) {
  // node_fraction × nodes rounds to zero here; the clamp must still pick
  // one node per batch so small systems churn at all.
  auto system = make_system(4, 12, 6, 14);
  WorkloadGenerator gen(system, WorkloadConfig{.attr_universe = 12}, 15);
  TaskManager manager(&system);
  for (auto& t : gen.small_tasks(6)) manager.add_task(std::move(t));
  Rng rng{16};
  std::size_t modified = 0;
  for (int round = 0; round < 20; ++round)
    modified += apply_update_batch(manager, system, 12, rng, 0.0, 0.5).tasks_modified;
  EXPECT_GT(modified, 0u);
}

TEST(Workload, UpdateBatchAttrsStayInUniverse) {
  auto system = make_system(50, 30, 10);
  WorkloadGenerator gen(system, WorkloadConfig{}, 8);
  TaskManager manager(&system, /*filter_observable=*/false);
  for (auto& t : gen.small_tasks(20)) manager.add_task(std::move(t));
  Rng rng{9};
  apply_update_batch(manager, system, 30, rng, 0.2, 0.5);
  for (const auto& [id, t] : manager.tasks())
    for (AttrId a : t.attrs) EXPECT_LT(a, 30u);
}

}  // namespace
}  // namespace remo
