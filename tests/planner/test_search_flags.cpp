// The PlannerOptions search-quality switches (ablation knobs): their
// observable contracts, independent of absolute plan quality.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "planner/planner.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

struct Fixture {
  SystemModel system;
  PairSet pairs;

  Fixture() : system(40, 60.0, kCost), pairs(41) {
    system.set_collector_capacity(800.0);
    Rng rng{5};
    system.assign_random_attributes(16, 6, rng);
    for (NodeId n = 1; n <= 40; ++n)
      for (AttrId a : system.observable(n)) pairs.add(n, a);
  }
};

PlannerOptions base_options() {
  PlannerOptions o;
  o.max_candidates = 8;
  o.max_iterations = 64;
  return o;
}

TEST(SearchFlags, FirstImprovementEvaluatesFewerCandidates) {
  Fixture f;
  PlannerOptions best = base_options();
  PlannerOptions first = base_options();
  first.best_of_candidates = false;
  Planner pb(f.system, best), pf(f.system, first);
  (void)pb.plan(f.pairs);
  (void)pf.plan(f.pairs);
  EXPECT_LT(pf.last_evaluations(), pb.last_evaluations());
}

TEST(SearchFlags, EveryVariantProducesValidDominantPlans) {
  // Whatever the switches, the plan must stay valid and non-trivial.
  Fixture f;
  for (int mask = 0; mask < 16; ++mask) {
    PlannerOptions o = base_options();
    o.best_of_candidates = mask & 1;
    o.relayout_escape = mask & 2;
    o.endpoint_guard = mask & 4;
    o.starvation_ranking = mask & 8;
    const Topology topo = Planner(f.system, o).plan(f.pairs);
    ASSERT_TRUE(topo.validate(f.system)) << "mask " << mask;
    EXPECT_GT(topo.collected_pairs(), 0u) << "mask " << mask;
  }
}

TEST(SearchFlags, EndpointGuardNeverHurtsTheObjective) {
  Fixture f;
  PlannerOptions with = base_options();
  PlannerOptions without = base_options();
  without.endpoint_guard = false;
  const auto guarded = Planner(f.system, with).plan(f.pairs);
  const auto bare = Planner(f.system, without).plan(f.pairs);
  const auto gs = score_of(guarded);
  const auto bs = score_of(bare);
  EXPECT_TRUE(gs.collected > bs.collected ||
              (gs.collected == bs.collected && gs.cost <= bs.cost + 1e-6));
}

TEST(SearchFlags, PaperOnlyConfigurationStillDominatesSingleton) {
  // Even with every guard off, the climb starts at SINGLETON-SET and only
  // accepts improvements: it can never end below it.
  Fixture f;
  PlannerOptions paper = base_options();
  paper.best_of_candidates = false;
  paper.relayout_escape = false;
  paper.endpoint_guard = false;
  paper.starvation_ranking = false;
  PlannerOptions singleton = base_options();
  singleton.partition_scheme = PartitionScheme::kSingletonSet;
  const auto climbed = Planner(f.system, paper).plan(f.pairs);
  const auto start = Planner(f.system, singleton).plan(f.pairs);
  EXPECT_GE(climbed.collected_pairs(), start.collected_pairs());
}

}  // namespace
}  // namespace remo
