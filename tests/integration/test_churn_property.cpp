// Churn-path equivalence properties (DESIGN.md §13, `ctest -L churn`):
// the delta replanning pipeline — exact TaskDeltas → TaskDelta::merge →
// AdaptivePlanner::apply_delta — must be bit-identical to the
// non-incremental ADAPTIVE scheme fed full pair sets at the same epochs,
// at every layer it is plumbed through: the planner itself, the
// MonitoringSystem facade's fast path, and the federation's shard-local
// routing (untouched shards must not replan at all).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adapt/adaptive_planner.h"
#include "common/sorted_vector.h"
#include "core/monitoring_system.h"
#include "extensions/attr_spec_derivation.h"
#include "federation/federated_system.h"
#include "obs/metrics.h"
#include "planner/topology.h"
#include "task/workload.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

PlannerOptions quick_options() {
  PlannerOptions o;
  o.partition_scheme = PartitionScheme::kRemo;
  o.max_candidates = 4;
  o.max_iterations = 8;
  return o;
}

// ---------------------------------------------------------------------------
// Planner layer: 20 seeded churn sequences, delta path vs non-incremental
// ADAPTIVE replanning at the exact same epochs → identical forests.

TEST(ChurnProperty, DeltaPathMatchesNonIncrementalAdaptiveAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    // Sparse pair coverage matters here: with few nodes and a tiny attr
    // universe, every (node, attr) pair is covered by several overlapping
    // tasks, refcounts never cross zero, and dedup-level deltas are empty
    // — no replan window would ever open. Size the system so churn
    // actually moves the deduplicated pair set.
    const std::size_t n = 24 + (seed % 5) * 8;
    const std::size_t universe = 16 + (seed % 3) * 4;
    SystemModel system(n, 300.0, kCost);
    system.set_collector_capacity(16.0 * static_cast<double>(n));
    Rng attr_rng{seed};
    system.assign_random_attributes(universe, 6, attr_rng);

    TaskManager manager(&system);
    WorkloadGenerator gen(system, WorkloadConfig{.attr_universe = universe},
                          seed * 31);
    for (auto& t : gen.small_tasks(n / 2)) manager.add_task(std::move(t));

    obs::Registry incr_registry, ref_registry;
    PlannerOptions incr_options = quick_options();
    incr_options.metrics = &incr_registry;
    AdaptivePlanner incr(system, incr_options, AdaptScheme::kAdaptive);
    PlannerOptions ref_options = quick_options();
    ref_options.metrics = &ref_registry;
    AdaptivePlanner ref(system, ref_options, AdaptScheme::kAdaptive);

    const PairSet initial = manager.dedup(system.num_vertices());
    incr.initialize(initial, 0.0);
    ref.initialize(initial, 0.0);

    // Merge each batch's delta into one pending delta; a window opens at
    // the first batch that leaves it non-empty and replans 4 epochs later.
    Rng churn{seed * 977};
    TaskDelta pending;
    double window_opened = 0.0;
    std::size_t replans = 0;
    const auto replan_both = [&](double now) {
      incr.apply_delta(pending, now);
      pending = TaskDelta{};
      ref.apply_update(manager.dedup(system.num_vertices()), now);
      ++replans;
      EXPECT_EQ(incr.topology().edges(), ref.topology().edges())
          << "seed=" << seed << " now=" << now;
      EXPECT_EQ(collected_pairs_of(incr.topology()),
                collected_pairs_of(ref.topology()))
          << "seed=" << seed << " now=" << now;
      EXPECT_TRUE(incr.pairs() == ref.pairs()) << "seed=" << seed;
    };

    for (std::size_t b = 1; b <= 16; ++b) {
      const double now = static_cast<double>(b);
      const auto stats = apply_update_batch(manager, system, universe, churn, 0.2);
      if (pending.pairs.empty()) window_opened = now;
      pending.merge(stats.delta);
      if (!pending.pairs.empty() && now - window_opened >= 4.0) replan_both(now);
    }
    if (!pending.pairs.empty()) replan_both(17.0);
    EXPECT_GE(replans, 2u) << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Facade layer: kNone churn rides the delta fast path (delta_applies
// counts it) and stays bit-identical to a hand-driven non-incremental
// ADAPTIVE planner replanning at the same read epochs.

TEST(ChurnFacade, DeltaFastPathMatchesNonIncrementalPlanner) {
  SystemModel proto(24, 300.0, kCost);
  proto.set_collector_capacity(16.0 * 24.0);
  Rng attr_rng{3};
  proto.assign_random_attributes(10, 4, attr_rng);

  MonitoringSystemOptions options;
  options.planner = quick_options();
  // Extension-oblivious: specs stay trivial, so every mutation is
  // signature-stable and must ride the delta path.
  options.aggregation_aware = false;
  options.frequency_aware = false;
  MonitoringSystem sys(proto, options);

  SystemModel mirror_system = proto;
  TaskManager mirror(&mirror_system);

  WorkloadGenerator gen(proto, WorkloadConfig{.attr_universe = 10}, 5);
  std::vector<MonitoringTask> tasks = gen.small_tasks(12);
  std::vector<TaskId> facade_ids, mirror_ids;
  for (const auto& t : tasks) {
    facade_ids.push_back(sys.add_task(t));
    mirror_ids.push_back(mirror.add_task(t));
  }

  PlannerOptions mirror_options = quick_options();
  mirror_options.attr_specs = derive_attr_specs(mirror, false, false);
  AdaptivePlanner ref(mirror_system, mirror_options, AdaptScheme::kAdaptive);
  ref.initialize(mirror.dedup(mirror_system.num_vertices()), 0.0);
  EXPECT_EQ(sys.collected_pairs(0.0), collected_pairs_of(ref.topology()));
  EXPECT_EQ(sys.topology(0.0).edges(), ref.topology().edges());

  Rng churn{7};
  for (std::size_t b = 1; b <= 8; ++b) {
    const double now = static_cast<double>(b);
    // Redraw one task's attribute set; apply identically to both sides.
    const std::size_t i = churn.below(tasks.size());
    MonitoringTask next = tasks[i];
    next.attrs.clear();
    next.attrs.push_back(static_cast<AttrId>(churn.below(10)));
    next.attrs.push_back(static_cast<AttrId>(churn.below(10)));
    sort_unique(next.attrs);
    tasks[i] = next;

    next.id = facade_ids[i];
    ASSERT_TRUE(sys.modify_task(next));
    next.id = mirror_ids[i];
    ASSERT_TRUE(mirror.modify_task(std::move(next)));

    ref.apply_update(mirror.dedup(mirror_system.num_vertices()), now);
    EXPECT_EQ(sys.collected_pairs(now), collected_pairs_of(ref.topology()))
        << "batch=" << b;
    EXPECT_EQ(sys.topology(now).edges(), ref.topology().edges()) << "batch=" << b;
  }
  // Every read after a mutation was served by the incremental path.
  EXPECT_EQ(sys.status(9.0).delta_applies, 8u);
}

// ---------------------------------------------------------------------------
// Federation layer: churn routed to one shard leaves every other shard's
// planner untouched — flat `planner.shard<k>.delta.replans` counters.

TEST(ChurnFederation, UntouchedShardsNeverReplanAcrossK) {
  for (std::size_t shards : {1u, 2u, 4u}) {
    SystemModel global(32, 300.0, kCost);
    global.set_collector_capacity(16.0 * 32.0);
    Rng attr_rng{7};
    global.assign_random_attributes(12, 5, attr_rng);

    obs::Registry registry;
    federation::FederationOptions options;
    options.num_shards = shards;
    options.metrics = &registry;
    options.shard.planner = quick_options();
    options.shard.aggregation_aware = false;
    options.shard.frequency_aware = false;
    federation::FederatedMonitoringSystem fed(global, options);

    // One task per shard, nodes wholly inside that shard's subset.
    std::vector<TaskId> task_of_shard(shards, 0);
    std::vector<MonitoringTask> task_defs(shards);
    for (std::uint32_t k = 0; k < shards; ++k) {
      MonitoringTask t;
      for (NodeId n = 1; n < global.num_vertices() && t.nodes.size() < 3; ++n)
        if (fed.router().shard_of(n) == k) t.nodes.push_back(n);
      ASSERT_FALSE(t.nodes.empty());
      t.attrs = global.observable(t.nodes.front());
      task_defs[k] = t;
      task_of_shard[k] = fed.add_task(t);
    }
    fed.status(0.0);  // plan every shard once

    // Churn only shard 0's task: redraw its attribute set repeatedly.
    Rng churn{11};
    for (std::size_t b = 1; b <= 6; ++b) {
      MonitoringTask next = task_defs[0];
      next.id = task_of_shard[0];
      next.attrs.clear();
      next.attrs.push_back(static_cast<AttrId>(churn.below(12)));
      sort_unique(next.attrs);
      ASSERT_TRUE(fed.modify_task(next));
      fed.status(static_cast<double>(b));
    }

    EXPECT_GT(fed.status(7.0).delta_applies, 0u) << "K=" << shards;
    fed.publish_metrics();
    const auto snap = registry.snapshot();
    for (std::uint32_t k = 0; k < shards; ++k) {
      const std::string name =
          "planner.shard" + std::to_string(k) + ".delta.replans";
      ASSERT_TRUE(snap.counters.contains(name)) << "K=" << shards;
      if (k == 0) {
        EXPECT_GT(snap.counters.at(name), 0u) << "K=" << shards;
      } else {
        EXPECT_EQ(snap.counters.at(name), 0u)
            << "K=" << shards << " shard=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace remo
