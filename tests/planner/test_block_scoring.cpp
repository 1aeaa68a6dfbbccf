// Rank-order scoring determinism properties (DESIGN.md §15): the committed
// plan and collected pairs are bit-identical across thread counts — which
// thread claims which rank is a pure throughput matter, never a
// tie-breaker.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "planner/planner.h"
#include "task/pair_set.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

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

void expect_plan_invariant(const RandomWorkload& w, PlannerOptions base,
                           std::uint64_t seed) {
  // Reference: serial.
  PlannerOptions ref_opts = base;
  ref_opts.num_threads = 1;
  const auto reference = Planner(w.system, ref_opts).plan(w.pairs);
  const PlanScore ref_score = score_of(reference);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    PlannerOptions opts = base;
    opts.num_threads = threads;
    const auto topo = Planner(w.system, opts).plan(w.pairs);
    const PlanScore s = score_of(topo);
    EXPECT_EQ(topo.edges(), reference.edges())
        << "seed=" << seed << " threads=" << threads;
    EXPECT_EQ(s.collected, ref_score.collected) << "seed=" << seed;
    EXPECT_DOUBLE_EQ(s.cost, ref_score.cost) << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// 20-seed property over the identity-funnel fast path (the dominant
// workload shape): thread count.

TEST(BlockScoring, PlanIdenticalAcrossThreadsAndSimd) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::size_t n = 16 + static_cast<std::size_t>(seed % 7) * 4;
    const Capacity cap = 40.0 + 15.0 * static_cast<double>(seed % 5);
    const Capacity coll = 120.0 + 40.0 * static_cast<double>(seed % 3);
    RandomWorkload w(seed, n, cap, coll, 10 + seed % 6, 4);
    expect_plan_invariant(w, PlannerOptions{}, seed);
  }
}

// Non-identity funnels and fractional weights force the general scalar
// walk (sequential float reduction): the thread invariance must hold there
// too.
TEST(BlockScoring, PlanIdenticalOnNonIdentityFunnelWorkloads) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::size_t n = 18 + static_cast<std::size_t>(seed % 4) * 6;
    RandomWorkload w(seed, n, 55.0, 180.0, 12, 4);
    PlannerOptions base;
    for (AttrId a = 0; a < 12; ++a) {
      if (a % 3 == 0) base.attr_specs.set_funnel(a, FunnelSpec{AggType::kSum});
      if (a % 3 == 1) base.attr_specs.set_funnel(a, FunnelSpec{AggType::kTopK, 2});
      if (a % 2 == 0) base.attr_specs.set_weight(a, 0.5);
    }
    expect_plan_invariant(w, base, seed);
  }
}

// First-improvement search commits the lowest-ranked improving candidate;
// the threads stop claiming ranks above the lowest improving one found so
// far, and must reach the same winner whatever the thread count.
TEST(BlockScoring, FirstImprovementWinnerInvariantToChunking) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::size_t n = 20 + static_cast<std::size_t>(seed % 5) * 4;
    RandomWorkload w(seed, n, 50.0, 160.0, 11, 4);
    PlannerOptions base;
    base.best_of_candidates = false;
    expect_plan_invariant(w, base, seed);
  }
}

}  // namespace
}  // namespace remo
