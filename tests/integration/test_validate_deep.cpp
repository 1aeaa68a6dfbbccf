// Deep-validation pass (`ctest -L validate`, DESIGN.md §11): re-runs the
// mutation-heavy paths — the PR 2 failure-recovery loop, the PR 4 builder
// reattach/rollback machinery, and a full guided-search plan — with
// REMO_VALIDATE=1, so every REMO_VALIDATE hook (MonitoringTree::validate
// after each tree mutation, Planner/TaskManager/repair invariants after
// each commit, the recomputed items template behind every tree-build
// cache hit) is armed. Any silently-corrupting bug aborts mid-run here
// long before its symptom would surface as a wrong plan.
#include <gtest/gtest.h>

#include <limits>

#include "common/check.h"
#include "core/monitoring_system.h"
#include "federation/federated_system.h"
#include "planner/tree_build_cache.h"
#include "sim/simulator.h"
#include "tree/builder.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

class ValidateDeep : public ::testing::Test {
 protected:
  // Belt and braces: the ctest entry also exports REMO_VALIDATE=1, but the
  // explicit override keeps the suite meaningful under a bare runner.
  void SetUp() override { set_validation_enabled(true); }
  void TearDown() override { set_validation_enabled(false); }
};

TEST_F(ValidateDeep, GateIsArmed) { ASSERT_TRUE(validation_enabled()); }

// --- PR 2: detect → repair → replan loop under deep validation ----------

TEST_F(ValidateDeep, RecoveryLoopValidatesAfterEveryRepairAndReplan) {
  constexpr std::uint64_t kForever = std::numeric_limits<std::uint64_t>::max();
  const std::size_t n = 14;
  SystemModel system(n, 1e6, kCost);
  system.set_collector_capacity(1e9);
  for (NodeId id = 1; id <= n; ++id) system.set_observable(id, {0});

  MonitoringSystemOptions opts;
  opts.planner.partition_scheme = PartitionScheme::kOneSet;
  opts.planner.tree.scheme = TreeScheme::kChain;
  opts.recovery.enabled = true;
  opts.recovery.liveness.missed_deadlines = 3;
  opts.recovery.stabilize_epochs = 8;

  MonitoringSystem service(std::move(system), opts);
  MonitoringTask task;
  task.attrs = {0};
  for (NodeId id = 1; id <= n; ++id) task.nodes.push_back(id);
  service.add_task(task);

  const Topology initial = service.topology(0.0);
  NodeId victim = kNoNode;
  const auto& tree = initial.entries()[0].tree;
  for (NodeId m : tree.members())
    if (tree.depth(m) == 3) victim = m;
  ASSERT_NE(victim, kNoNode);

  const PairSet pairs = service.tasks().dedup(service.system().num_vertices());
  bool changed = false;
  SimConfig cfg;
  cfg.epochs = 120;
  cfg.failures = {{victim, 30, kForever}};
  cfg.on_delivery = [&](NodeAttrPair p, std::uint64_t e, double) {
    service.on_delivery(p, e);
  };
  cfg.on_epoch_end = [&](std::uint64_t e) {
    changed = service.end_epoch(e);
    // The loop's own hooks validated the adopted topology; double-check
    // from the outside every epoch where the deployment changed.
    if (changed) {
      ASSERT_TRUE(service.topology(static_cast<double>(e)).validate(service.system()))
          << "epoch " << e;
    }
  };
  cfg.on_reconfigure = [&](std::uint64_t e) -> const Topology* {
    return changed ? &service.topology(static_cast<double>(e)) : nullptr;
  };
  RandomWalkSource src(pairs, 11, 100.0, 3.0);
  (void)simulate(service.system(), initial, pairs, src, cfg);

  const auto& rep = service.repair_report();
  EXPECT_GE(rep.repair_passes, 1u);
  EXPECT_GE(rep.replans_after_outage, 1u);
  EXPECT_TRUE(service.topology(120.0).validate(service.system()));
}

// --- PR 4: builder adjust (reattach + rollback) under deep validation ---

std::vector<TreeAttrSpec> one_attr() {
  return {TreeAttrSpec{0, FunnelSpec{}, 1.0}};
}

/// Hub under the collector with `branches` single-node branches; the hub's
/// capacity is exactly exhausted, so it is congested.
MonitoringTree congested_hub(std::size_t branches, Capacity leaf_avail) {
  const double hub_need = static_cast<double>(branches) * kCost.message_cost(1) +
                          kCost.message_cost(branches + 1);
  MonitoringTree t(one_attr(), 1e9, kCost);
  t.attach(BuildItem{1, {1}, hub_need}, kCollectorId);
  for (NodeId id = 2; id < 2 + branches; ++id)
    t.attach(BuildItem{id, {1}, leaf_avail}, 1);
  return t;
}

TEST_F(ValidateDeep, AdjustReattachValidatesAfterEveryJournaledMutation) {
  // branch_reattach=false walks the journal-based node-by-node path: each
  // detach/attach pair runs the deep_validate hook; a commit that left the
  // arena inconsistent aborts inside adjust_tree_once.
  for (bool branch : {false, true}) {
    auto t = congested_hub(4, 100.0);
    TreeBuildOptions opts;
    opts.scheme = TreeScheme::kAdaptive;
    opts.branch_reattach = branch;
    ASSERT_TRUE(adjust_tree_once(t, {1}, kCost.message_cost(1), opts))
        << "branch_reattach=" << branch;
    EXPECT_TRUE(t.validate()) << "branch_reattach=" << branch;
    EXPECT_EQ(t.size(), 5u);
  }
}

TEST_F(ValidateDeep, AdjustRollbackRestoresAValidatedTree) {
  // No target can absorb anything: every attempted move rolls back through
  // the undo journal, and rollback_journal's own hook re-validates.
  for (bool branch : {false, true}) {
    auto t = congested_hub(4, /*leaf_avail=*/kCost.message_cost(1));
    TreeBuildOptions opts;
    opts.scheme = TreeScheme::kAdaptive;
    opts.branch_reattach = branch;
    EXPECT_FALSE(adjust_tree_once(t, {1}, kCost.message_cost(1), opts));
    EXPECT_TRUE(t.validate()) << "branch_reattach=" << branch;
    EXPECT_EQ(t.size(), 5u);  // rollback restored every member
  }
}

// --- PR 6: federated task churn under deep validation --------------------

TEST_F(ValidateDeep, FederationChurnValidatesShardScopedInvariants) {
  // Every add/remove/modify runs the facade's pair-count conservation
  // check plus each scoped core's planner/task-manager hooks (which now
  // assert all routed nodes lie inside the shard's own subset).
  SystemModel system(16, 500.0, kCost);
  system.set_collector_capacity(1e6);
  for (NodeId id = 1; id <= 16; ++id) system.set_observable(id, {0, 1, 2});

  federation::FederationOptions opts;
  opts.num_shards = 4;
  federation::FederatedMonitoringSystem fed(std::move(system),
                                            std::move(opts));
  std::vector<TaskId> ids;
  for (std::uint32_t i = 0; i < 6; ++i) {
    MonitoringTask t;
    t.attrs = {static_cast<AttrId>(i % 3)};
    for (NodeId n = 1 + i; n <= 16; n += 2) t.nodes.push_back(n);
    ids.push_back(fed.add_task(t));
  }
  (void)fed.status();
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    MonitoringTask t;
    t.id = ids[i];
    t.attrs = {2};
    t.nodes = {1, 6, 11, 16};  // respans the shards
    ASSERT_TRUE(fed.modify_task(t));
  }
  ASSERT_TRUE(fed.remove_task(ids[1]));
  const auto status = fed.status(1.0);
  EXPECT_EQ(status.tasks, 5u);
  EXPECT_EQ(status.collected, status.pairs);  // ample capacity everywhere
  for (std::size_t s = 0; s < fed.num_shards(); ++s)
    EXPECT_TRUE(fed.shard(s).topology(1.0).validate(fed.shard(s).system()));
  fed.check_invariants();
}

// --- full guided search under deep validation ---------------------------

TEST_F(ValidateDeep, GuidedSearchPlanPassesInvariantHooksEachCommit) {
  SystemModel system(20, 200.0, kCost);
  system.set_collector_capacity(400.0);
  PairSet pairs(21);
  for (NodeId id = 1; id <= 20; ++id) {
    std::vector<AttrId> attrs = id <= 10 ? std::vector<AttrId>{0, 1}
                                         : std::vector<AttrId>{2, 3};
    attrs.push_back(4);
    system.set_observable(id, attrs);
    for (AttrId a : attrs) pairs.add(id, a);
  }
  PlannerOptions opts;
  opts.partition_scheme = PartitionScheme::kRemo;
  Planner planner(system, opts);
  // Planner::check_invariants runs after the initial build, every accepted
  // improve_once, and the final plan; tree-level deep_validate runs inside
  // every candidate build.
  const Topology topo = planner.plan(pairs);
  EXPECT_TRUE(topo.validate(system));
  EXPECT_GT(topo.collected_pairs(), 0u);
}

// --- the tree-build cache's items templates -----------------------------

TEST(TreeBuildCacheDeathTest, StaleEntryIsNeverServedUnderValidation) {
  const bool before = validation_enabled();
  set_validation_enabled(true);
  PairSet pairs(8);
  pairs.add(3, 1);
  pairs.add(1, 4);
  TreeBuildCache cache;
  cache.items_template({1, 4}, pairs);
  EXPECT_NE(cache.items_template({1, 4}, pairs), nullptr);  // still matches

  // Mutate the slice the template was computed from without invalidating:
  // serving it now would hand the builder the wrong members and counts.
  pairs.add(3, 4);
  EXPECT_DEATH((void)cache.items_template({1, 4}, pairs), "stale items template");
  set_validation_enabled(before);
}

}  // namespace
}  // namespace remo
