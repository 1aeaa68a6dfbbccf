#include "planner/evaluator.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "planner/planner.h"
#include "planner/tree_build_cache.h"
#include "task/pair_set.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

TreeBuildOptions adaptive() {
  TreeBuildOptions o;
  o.scheme = TreeScheme::kAdaptive;
  return o;
}

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

PlannerOptions engine_options(std::size_t threads, bool memoize) {
  PlannerOptions o;
  o.num_threads = threads;
  o.memoize_builds = memoize;
  return o;
}

// ---------------------------------------------------------------------------
// Determinism property: plan() must be byte-identical regardless of the
// evaluation concurrency and of whether the memo cache is on.

TEST(PlanEvaluator, PlanIdenticalAcrossThreadCountsAndCache) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    // Vary the shape with the seed: node count, capacity tightness, and
    // attribute density all move so the search takes different paths.
    const std::size_t n = 16 + static_cast<std::size_t>(seed % 7) * 4;
    const Capacity cap = 40.0 + 15.0 * static_cast<double>(seed % 5);
    const Capacity coll = 120.0 + 40.0 * static_cast<double>(seed % 3);
    RandomWorkload w(seed, n, cap, coll, 10 + seed % 6, 4);

    const auto reference =
        Planner(w.system, engine_options(1, false)).plan(w.pairs);
    const PlanScore ref_score = score_of(reference);

    for (const auto& [threads, memoize] :
         std::vector<std::pair<std::size_t, bool>>{{1, true}, {8, false}, {8, true}}) {
      Planner planner(w.system, engine_options(threads, memoize));
      const auto topo = planner.plan(w.pairs);
      const PlanScore s = score_of(topo);
      EXPECT_EQ(topo.edges(), reference.edges())
          << "seed=" << seed << " threads=" << threads << " memoize=" << memoize;
      EXPECT_EQ(s.collected, ref_score.collected) << "seed=" << seed;
      EXPECT_DOUBLE_EQ(s.cost, ref_score.cost) << "seed=" << seed;
    }
  }
}

TEST(PlanEvaluator, StatsReportEvaluationsAndTimings) {
  RandomWorkload w(3, 24, 60.0, 200.0, 12, 4);
  Planner planner(w.system, engine_options(2, true));
  planner.plan(w.pairs);
  const EvalStats stats = planner.last_stats();
  EXPECT_GT(stats.evaluations, 0u);
  EXPECT_EQ(stats.evaluations, planner.last_evaluations());
  EXPECT_GE(stats.evaluate_seconds, 0.0);
  EXPECT_GE(stats.build_seconds, 0.0);
}

TEST(PlanEvaluator, RepeatedPlanWarmsTheCache) {
  RandomWorkload w(5, 24, 60.0, 200.0, 12, 4);
  Planner planner(w.system, engine_options(1, true));
  const auto first = planner.plan(w.pairs);
  const auto second = planner.plan(w.pairs);
  // Same pair set: the cache survives the second call and serves repeats.
  EXPECT_GT(planner.last_stats().cache_hits, 0u);
  EXPECT_EQ(first.edges(), second.edges());
}

TEST(PlanEvaluator, ChangedPairSetEvictsOnlyIntersectingEntries) {
  RandomWorkload w(6, 24, 60.0, 200.0, 12, 4);
  Planner planner(w.system, engine_options(1, true));
  planner.plan(w.pairs);
  const std::size_t before = planner.evaluator().cache().size();
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
  // Scoped invalidation (DESIGN.md §13): only entries whose attribute set
  // contains the changed attr may go; the rest stay bit-exact. A wholesale
  // clear here would throw away every memoized build on any churn.
  planner.evaluator().sync_pairs(fewer);
  const std::size_t after = planner.evaluator().cache().size();
  EXPECT_LE(after, before);
}

TEST(PlanEvaluator, DisjointDeltaKeepsCachedBuildsServable) {
  // Deterministic surgical variant: warm the cache with a two-group
  // partition, then change the pair set only over the first group's
  // attribute. The second group's entry must survive and keep serving.
  // Capacity-bound, so both builds adjust and are memoized; attr 1 has the
  // larger node set, so ORDERED builds it first, on the full capacities,
  // both before and after the change.
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
  Planner planner(system, engine_options(1, true));
  PlanEvaluator& ev = planner.evaluator();
  const Partition two({{0}, {1}});
  ev.sync_pairs(pairs);
  ev.build_full(pairs, two);
  ASSERT_GE(ev.cache().size(), 2u);
  const std::size_t warm = ev.cache().size();

  PairSet fewer = pairs;
  fewer.remove(12, 0);  // touches attr 0 only
  ev.sync_pairs(fewer);
  // Attr 1's entry survived; attr 0's is gone.
  EXPECT_LT(ev.cache().size(), warm);
  EXPECT_GT(ev.cache().size(), 0u);

  // Rebuilding the same partition over the new pair set re-serves the
  // surviving attr-1 build from cache.
  const std::size_t hits_before = ev.cache().hits();
  ev.build_full(fewer, two);
  EXPECT_GT(ev.cache().hits(), hits_before);
}

// ---------------------------------------------------------------------------
// Memo-cache key semantics: the capacity fingerprint must invalidate when
// any remaining capacity in the key changes.

TreeBuildKey sample_key() {
  TreeBuildKey k;
  k.attrs = {1, 4};
  k.nodes = {3, 1, 7};
  k.avails = {50.0, 42.0, 13.0};
  k.collector_avail = 90.0;
  return k;
}

TreeEntry sample_entry() {
  // Any real entry will do; build a tiny one-tree topology and take it.
  SystemModel system(3, 1e6, kCost);
  PairSet pairs(4);
  for (NodeId id = 1; id <= 3; ++id) {
    system.set_observable(id, {0});
    pairs.add(id, 0);
  }
  TreeBuildCache cache;
  auto topo = build_topology(system, pairs, Partition::singleton({0}),
                             AttrSpecTable{}, AllocationScheme::kOrdered, adaptive(),
                             cache);
  return topo.entries().front();
}

TEST(TreeBuildCache, MissThenHitOnIdenticalKey) {
  TreeBuildCache cache;
  const TreeBuildKey key = sample_key();
  EXPECT_EQ(cache.peek(key), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  cache.insert(key, sample_entry());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.peek(key), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(TreeBuildCache, MemberCapacityChangeInvalidates) {
  TreeBuildCache cache;
  cache.insert(sample_key(), sample_entry());

  TreeBuildKey changed = sample_key();
  changed.avails[1] = 41.0;  // one member's remaining budget moved
  EXPECT_EQ(cache.peek(changed), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TreeBuildCache, CollectorCapacityChangeInvalidates) {
  TreeBuildCache cache;
  cache.insert(sample_key(), sample_entry());

  TreeBuildKey changed = sample_key();
  changed.collector_avail = 89.0;
  EXPECT_EQ(cache.peek(changed), nullptr);
}

TEST(TreeBuildCache, AttrOrNodeChangeInvalidates) {
  TreeBuildCache cache;
  cache.insert(sample_key(), sample_entry());

  TreeBuildKey other_attrs = sample_key();
  other_attrs.attrs = {1, 5};
  EXPECT_EQ(cache.peek(other_attrs), nullptr);

  TreeBuildKey other_nodes = sample_key();
  other_nodes.nodes = {3, 1, 8};
  EXPECT_EQ(cache.peek(other_nodes), nullptr);
}

TEST(TreeBuildCache, InvalidateAttrsEvictsOnlyIntersectingEntries) {
  TreeBuildCache cache;
  const TreeBuildKey a = sample_key();  // attrs {1, 4}
  TreeBuildKey b = sample_key();
  b.attrs = {2, 3};
  cache.insert(a, sample_entry());
  cache.insert(b, sample_entry());

  EXPECT_EQ(cache.invalidate_attrs({}), 0u);
  EXPECT_EQ(cache.invalidate_attrs({4}), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.peek(a), nullptr);
  EXPECT_NE(cache.peek(b), nullptr);  // disjoint attrs: still served
}

TEST(TreeBuildCacheDeathTest, StaleEntryIsNeverServedUnderValidation) {
  set_validation_enabled(true);
  // Reference pair set matching sample_key()'s slice: node 3 monitors
  // attr 1, node 1 monitors attr 4, node 7 nothing.
  PairSet pairs(8);
  pairs.add(3, 1);
  pairs.add(1, 4);
  TreeBuildCache cache;
  cache.set_reference_pairs(&pairs);
  const TreeBuildKey key = sample_key();
  cache.insert(key, sample_entry());
  EXPECT_NE(cache.peek(key), nullptr);  // fingerprint still matches

  // Mutate the slice the entry was built against without invalidating:
  // serving it now would hand the planner a tree for the wrong pair set.
  pairs.add(3, 4);
  EXPECT_DEATH((void)cache.peek(key), "stale entry");
  set_validation_enabled(false);
}

TEST(TreeBuildCache, ClearEmptiesEntries) {
  TreeBuildCache cache;
  cache.insert(sample_key(), sample_entry());
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.peek(sample_key()), nullptr);
}

// ---------------------------------------------------------------------------
// Admission: only builds that ran a parent scan are memoized. A build that
// ran none hung every item it placed under the collector (collector-first
// construction, uniform-identity STAR/ADAPTIVE trees only), about what its
// lookup costs. Any other build scanned: an adjusted one, and one a single
// pass finished over a non-identity tree or under CHAIN.

TEST(TreeBuildCache, MemoizesOnlyBuildsThatScanned) {
  struct Outcome {
    std::size_t scans, adjusts, entries;
  };
  auto build_once = [&](Capacity node_cap, Capacity collector_cap,
                        const AttrSpecTable& specs, TreeScheme scheme) {
    SystemModel system(12, node_cap, kCost);
    system.set_collector_capacity(collector_cap);
    PairSet pairs(13);
    std::vector<BuildItem> items;
    for (NodeId id = 1; id <= 12; ++id) {
      system.set_observable(id, {0});
      pairs.add(id, 0);
      items.push_back(BuildItem{id, {1}, node_cap});
    }
    TreeBuildOptions opts;
    opts.scheme = scheme;
    const auto direct =
        build_tree({specs.tree_spec(0)}, items, collector_cap, kCost, opts);
    TreeBuildCache cache;
    build_topology(system, pairs, Partition::singleton({0}), specs,
                   AllocationScheme::kOrdered, opts, cache);
    return Outcome{direct.parent_scans, direct.adjust_invocations, cache.size()};
  };
  const AttrSpecTable identity;
  AttrSpecTable funnelled;
  funnelled.set_funnel(0, FunnelSpec{AggType::kMax});

  // Ample capacity: every item hangs under the collector without a scan.
  const auto ample = build_once(1e6, 1e6, identity, TreeScheme::kAdaptive);
  EXPECT_EQ(ample.scans, 0u);
  EXPECT_EQ(ample.entries, 0u);
  // The collector fills: later items scan, the adjusting procedure runs,
  // and the build is memoized.
  const auto bound = build_once(40.0, 50.0, identity, TreeScheme::kAdaptive);
  EXPECT_GT(bound.scans, 0u);
  EXPECT_GT(bound.adjusts, 0u);
  EXPECT_EQ(bound.entries, 1u);
  // Ample capacity again, but every item is scanned: a MAX funnel (no
  // collector-first path) or CHAIN. No adjust ran; the build is memoized.
  for (const auto& [specs, scheme] :
       {std::pair{funnelled, TreeScheme::kAdaptive},
        std::pair{identity, TreeScheme::kChain}}) {
    const auto scanned = build_once(1e6, 1e6, specs, scheme);
    EXPECT_EQ(scanned.scans, 12u);
    EXPECT_EQ(scanned.adjusts, 0u);
    EXPECT_EQ(scanned.entries, 1u);
  }
}

// ---------------------------------------------------------------------------
// Behavioral: the fingerprint is taken from live remaining capacities, so
// rebuilding the same attribute set over bases with different residual
// budgets must not share an entry, while repeating the same build must.

TEST(TreeBuildCache, RebuildTreesHitsOnRepeatMissesOnChangedRemaining) {
  // Tight capacities: remaining budgets stay below the unconstrained-bound
  // clamp, so they enter the key raw.
  SystemModel system(10, 60.0, kCost);
  system.set_collector_capacity(120.0);
  PairSet pairs(11);
  for (NodeId id = 1; id <= 10; ++id) {
    system.set_observable(id, {0, 1, 2});
    for (AttrId a : {0, 1, 2}) pairs.add(id, a);
  }

  TreeBuildCache base_cache;
  const auto base_split =
      build_topology(system, pairs, Partition::singleton({0, 1, 2}),
                     AttrSpecTable{}, AllocationScheme::kOrdered, adaptive(), base_cache);
  const auto base_merged =
      build_topology(system, pairs, Partition({{0, 1}, {2}}), AttrSpecTable{},
                     AllocationScheme::kOrdered, adaptive(), base_cache);

  auto victim_of = [](const Topology& t, const std::vector<AttrId>& attrs) {
    for (std::size_t i = 0; i < t.entries().size(); ++i)
      if (t.entries()[i].attrs == attrs) return i;
    ADD_FAILURE() << "victim not found";
    return std::size_t{0};
  };

  // Rebuilding {2} sees different residual budgets under the two bases
  // (remaining capacity plus whatever the removed victim frees); skip the
  // miss assertion if this workload happens to equalize them.
  auto residual = [&](const Topology& t, std::size_t victim, NodeId id) {
    const auto& tree = t.entries()[victim].tree;
    return t.remaining(id, system) + (tree.contains(id) ? tree.usage(id) : 0.0);
  };
  bool residuals_differ = false;
  for (NodeId id = 1; id <= 10; ++id)
    if (residual(base_split, victim_of(base_split, {2}), id) !=
        residual(base_merged, victim_of(base_merged, {2}), id))
      residuals_differ = true;

  TreeBuildCache cache;
  const std::size_t v = victim_of(base_split, {2});
  const auto first = rebuild_trees(base_split, system, pairs, {v}, {{2}},
                                   AttrSpecTable{}, AllocationScheme::kOrdered,
                                   adaptive(), cache);
  EXPECT_EQ(cache.hits(), 0u);

  // Identical rebuild: served from the cache, bit-identical result.
  const auto again = rebuild_trees(base_split, system, pairs, {v}, {{2}},
                                   AttrSpecTable{}, AllocationScheme::kOrdered,
                                   adaptive(), cache);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_EQ(first.edges(), again.edges());
  EXPECT_EQ(first.collected_pairs(), again.collected_pairs());

  if (residuals_differ) {
    // Same attribute set, different residual capacities: must be a miss.
    const std::size_t hits_before = cache.hits();
    rebuild_trees(base_merged, system, pairs, {victim_of(base_merged, {2})}, {{2}},
                  AttrSpecTable{}, AllocationScheme::kOrdered, adaptive(), cache);
    EXPECT_EQ(cache.hits(), hits_before);
  }
}

}  // namespace
}  // namespace remo
