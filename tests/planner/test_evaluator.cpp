#include "planner/evaluator.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "partition/augmentation.h"
#include "planner/planner.h"
#include "planner/tree_build_cache.h"
#include "task/pair_set.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

/// A random workload in the style the planner benches use: every node
/// monitors everything it observes.
struct RandomWorkload {
  SystemModel system;
  PairSet pairs;

  RandomWorkload(std::uint64_t seed, std::size_t n, Capacity node_cap,
                 Capacity collector_cap, std::size_t universe, std::size_t per_node)
      : system(n, node_cap, kCost), pairs(n + 1) {
    system.set_collector_capacity(collector_cap);
    Rng rng{seed};
    system.assign_random_attributes(universe, per_node, rng);
    for (NodeId id = 1; id <= n; ++id)
      for (AttrId a : system.observable(id)) pairs.add(id, a);
  }
};

PlannerOptions engine_options(std::size_t threads) {
  PlannerOptions o;
  o.num_threads = threads;
  return o;
}

// ---------------------------------------------------------------------------
// Determinism property: plan() must be byte-identical regardless of the
// evaluation concurrency and of whether the items templates are cold (a
// fresh planner) or warm (the same planner's second plan()).

TEST(PlanEvaluator, PlanIdenticalAcrossThreadCountsAndCache) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    // Vary the shape with the seed: node count, capacity tightness, and
    // attribute density all move so the search takes different paths.
    const std::size_t n = 16 + static_cast<std::size_t>(seed % 7) * 4;
    const Capacity cap = 40.0 + 15.0 * static_cast<double>(seed % 5);
    const Capacity coll = 120.0 + 40.0 * static_cast<double>(seed % 3);
    RandomWorkload w(seed, n, cap, coll, 10 + seed % 6, 4);

    const auto reference = Planner(w.system, engine_options(1)).plan(w.pairs);
    const PlanScore ref_score = score_of(reference);

    for (std::size_t threads : {1u, 8u}) {
      Planner planner(w.system, engine_options(threads));
      for (const char* cache : {"cold", "warm"}) {
        const auto topo = planner.plan(w.pairs);
        const PlanScore s = score_of(topo);
        EXPECT_EQ(topo.edges(), reference.edges())
            << "seed=" << seed << " threads=" << threads << " cache=" << cache;
        EXPECT_EQ(s.collected, ref_score.collected) << "seed=" << seed;
        EXPECT_DOUBLE_EQ(s.cost, ref_score.cost) << "seed=" << seed;
      }
    }
  }
}

// The commit adopts the trees the scoring pass built instead of building
// the winner again. Property: every topology improve_once commits equals
// rebuild_trees(base, footprint(winner)) — entry for entry, edge for edge,
// with bit-equal cost — under both commit rules and any thread count.

TEST(PlanEvaluator, CommittedTopologyEqualsRebuildOfTheWinner) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::size_t n = 16 + static_cast<std::size_t>(seed % 7) * 4;
    const Capacity cap = 40.0 + 15.0 * static_cast<double>(seed % 5);
    const Capacity coll = 120.0 + 40.0 * static_cast<double>(seed % 3);
    RandomWorkload w(seed, n, cap, coll, 10 + seed % 6, 4);
    PlannerOptions o = engine_options(seed % 3 == 0 ? 1 : 4);
    o.best_of_candidates = seed % 2 == 0;
    Planner planner(w.system, o);
    PlanEvaluator& ev = planner.evaluator();
    TreeBuildCache reference_cache;

    ev.sync_pairs(w.pairs);
    Topology topo =
        ev.build_full(w.pairs, Partition::singleton(w.pairs.attribute_universe()));
    std::size_t commits = 0;
    for (std::size_t iter = 0; iter < o.max_iterations; ++iter) {
      // The ranking and commit rule improve_once applies.
      const auto candidates = rank_topology_augmentations(
          topo, w.pairs, w.system.cost(), o.conflicts, o.max_candidates, nullptr,
          o.starvation_ranking);
      const PlanScore current = score_of(topo);
      auto won = o.best_of_candidates
                     ? ev.best_improving(topo, w.pairs, candidates, current)
                     : ev.first_improving(topo, w.pairs, candidates, current,
                                          candidates.size());
      if (!won) break;
      const auto fp = footprint(topo.partition(), candidates[won->index]);
      const Topology rebuilt =
          rebuild_trees(topo, w.system, w.pairs, fp.victims, fp.new_sets,
                        o.attr_specs, o.allocation, o.tree, reference_cache);
      ASSERT_EQ(won->topo.num_trees(), rebuilt.num_trees()) << "seed=" << seed;
      for (std::size_t k = 0; k < rebuilt.num_trees(); ++k) {
        const auto& got = won->topo.entries()[k];
        const auto& want = rebuilt.entries()[k];
        EXPECT_EQ(got.attrs, want.attrs) << "seed=" << seed << " tree=" << k;
        EXPECT_EQ(got.offered_pairs, want.offered_pairs) << "seed=" << seed;
        EXPECT_EQ(got.collected_pairs, want.collected_pairs) << "seed=" << seed;
        EXPECT_EQ(got.tree.total_cost(), want.tree.total_cost()) << "seed=" << seed;
      }
      EXPECT_EQ(won->topo.edges(), rebuilt.edges()) << "seed=" << seed;
      EXPECT_EQ(won->topo.total_cost(), rebuilt.total_cost()) << "seed=" << seed;
      EXPECT_EQ(won->topo.total_pairs(), rebuilt.total_pairs()) << "seed=" << seed;
      EXPECT_EQ(won->score.collected, rebuilt.collected_pairs()) << "seed=" << seed;
      EXPECT_EQ(won->score.cost, rebuilt.total_cost()) << "seed=" << seed;

      // improve_once commits exactly this topology.
      Topology committed = topo;
      ASSERT_TRUE(planner.improve_once(committed, w.pairs)) << "seed=" << seed;
      EXPECT_EQ(committed.edges(), rebuilt.edges()) << "seed=" << seed;
      EXPECT_EQ(committed.total_cost(), rebuilt.total_cost()) << "seed=" << seed;
      topo = std::move(won->topo);
      ++commits;
    }
    EXPECT_GT(commits, 0u) << "seed=" << seed << ": the search committed nothing";
  }
}

TEST(PlanEvaluator, StatsReportEvaluationsAndTimings) {
  RandomWorkload w(3, 24, 60.0, 200.0, 12, 4);
  Planner planner(w.system, engine_options(2));
  planner.plan(w.pairs);
  const EvalStats stats = planner.last_stats();
  EXPECT_GT(stats.evaluations, 0u);
  EXPECT_EQ(stats.evaluations, planner.last_evaluations());
  EXPECT_GE(stats.evaluate_seconds, 0.0);
  EXPECT_GE(stats.build_seconds, 0.0);
}

TEST(PlanEvaluator, RepeatedPlanWarmsTheCache) {
  RandomWorkload w(5, 24, 60.0, 200.0, 12, 4);
  Planner planner(w.system, engine_options(1));
  const auto first = planner.plan(w.pairs);
  EXPECT_GT(planner.last_stats().cache_misses, 0u);
  const auto second = planner.plan(w.pairs);
  // Same pair set: the templates survive the second call, which visits the
  // same attribute sets and so finds every one of them cached.
  EXPECT_GT(planner.last_stats().cache_hits, 0u);
  EXPECT_EQ(planner.last_stats().cache_misses, 0u);
  EXPECT_EQ(first.edges(), second.edges());
}

TEST(PlanEvaluator, ChangedPairSetEvictsOnlyIntersectingEntries) {
  RandomWorkload w(6, 24, 60.0, 200.0, 12, 4);
  Planner planner(w.system, engine_options(1));
  planner.plan(w.pairs);
  TreeBuildCache& cache = planner.evaluator().cache();
  const std::size_t before = cache.size();
  ASSERT_GT(before, 0u);

  PairSet fewer = w.pairs;
  NodeId node = kNoNode;
  AttrId attr = 0;
  for (NodeId id = 1; id <= 24 && node == kNoNode; ++id)
    for (AttrId a : w.system.observable(id)) {
      fewer.remove(id, a);
      node = id;
      attr = a;
      break;
    }
  ASSERT_NE(node, kNoNode);
  // Scoped invalidation (DESIGN.md §13): only templates whose attribute
  // set contains the changed attr go; the rest stay exact. The initial
  // singleton layout cached one template per attribute, so both kinds
  // exist.
  planner.evaluator().sync_pairs(fewer);
  const std::size_t after = cache.size();
  EXPECT_LT(after, before);
  EXPECT_GT(after, 0u);

  const auto universe = fewer.attribute_universe();
  const AttrId other = universe.front() == attr ? universe.back() : universe.front();
  const std::size_t hits = cache.hits();
  const std::size_t misses = cache.misses();
  cache.items_template({other}, fewer);
  EXPECT_EQ(cache.hits(), hits + 1);  // disjoint: still served
  cache.items_template({attr}, fewer);
  EXPECT_EQ(cache.misses(), misses + 1);  // evicted: computed afresh
}

TEST(PlanEvaluator, DisjointDeltaKeepsCachedBuildsServable) {
  // Deterministic surgical variant: warm the cache with a two-group
  // partition, then change the pair set only over the first group's
  // attribute. The second group's template must survive and keep serving
  // the builds over it.
  SystemModel system(12, 40.0, kCost);
  system.set_collector_capacity(100.0);
  PairSet pairs(13);
  system.set_observable(1, {1});
  pairs.add(1, 1);
  for (NodeId id = 2; id <= 12; ++id) {
    system.set_observable(id, {0, 1});
    pairs.add(id, 0);
    pairs.add(id, 1);
  }
  Planner planner(system, engine_options(1));
  PlanEvaluator& ev = planner.evaluator();
  const Partition two({{0}, {1}});
  ev.sync_pairs(pairs);
  ev.build_full(pairs, two);
  ASSERT_EQ(ev.cache().size(), 2u);

  PairSet fewer = pairs;
  fewer.remove(12, 0);  // touches attr 0 only
  ev.sync_pairs(fewer);
  // Attr 1's template survived; attr 0's is gone.
  EXPECT_EQ(ev.cache().size(), 1u);

  // Rebuilding the same partition over the new pair set serves the
  // surviving attr-1 template and recomputes attr 0's.
  const std::size_t hits_before = ev.cache().hits();
  const std::size_t misses_before = ev.cache().misses();
  const Topology rebuilt = ev.build_full(fewer, two);
  EXPECT_EQ(ev.cache().hits(), hits_before + 1);
  EXPECT_EQ(ev.cache().misses(), misses_before + 1);
  TreeBuildCache cold;
  const Topology fresh =
      build_topology(system, fewer, two, AttrSpecTable{}, AllocationScheme::kOrdered,
                     planner.options().tree, cold);
  EXPECT_EQ(rebuilt.edges(), fresh.edges());
  EXPECT_EQ(rebuilt.total_cost(), fresh.total_cost());
}

// ---------------------------------------------------------------------------
// The items-template cache: keyed by the sorted attribute set, with scoped
// eviction. (Its validation guard is tested in the deep-validation suite,
// integration/test_validate_deep.cpp.)

/// Node 3 monitors attr 1, node 1 attr 4, node 7 attrs 2 and 3.
PairSet sample_pairs() {
  PairSet pairs(8);
  pairs.add(3, 1);
  pairs.add(1, 4);
  pairs.add(7, 2);
  pairs.add(7, 3);
  return pairs;
}

TEST(TreeBuildCache, MissThenHitOnIdenticalKey) {
  const PairSet pairs = sample_pairs();
  TreeBuildCache cache;
  const auto* first = cache.items_template({1, 4}, pairs);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(first->nodes, (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(first->local, (std::vector<std::uint32_t>{0, 1, 1, 0}));
  EXPECT_EQ(first->offered, 2u);

  EXPECT_EQ(cache.items_template({1, 4}, pairs), first);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TreeBuildCache, InvalidateAttrsEvictsOnlyIntersectingEntries) {
  const PairSet pairs = sample_pairs();
  TreeBuildCache cache;
  cache.items_template({1, 4}, pairs);
  cache.items_template({2, 3}, pairs);
  ASSERT_EQ(cache.misses(), 2u);

  EXPECT_EQ(cache.invalidate_attrs({}), 0u);
  EXPECT_EQ(cache.invalidate_attrs({4}), 1u);
  EXPECT_EQ(cache.size(), 1u);
  cache.items_template({2, 3}, pairs);  // disjoint attrs: still served
  EXPECT_EQ(cache.hits(), 1u);
  cache.items_template({1, 4}, pairs);  // evicted: computed afresh
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(TreeBuildCache, ClearEmptiesEntries) {
  const PairSet pairs = sample_pairs();
  TreeBuildCache cache;
  cache.items_template({1, 4}, pairs);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  cache.items_template({1, 4}, pairs);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

}  // namespace
}  // namespace remo
