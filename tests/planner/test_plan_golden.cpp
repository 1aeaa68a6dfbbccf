// Golden plan digests: full REMO plans of small capacity-bound inputs under
// every tree scheme, both reattach modes and search scopes, the four
// allocation schemes, SUM funnels, half-frequency weights and a fractional
// cost model, each pinned to a digest recorded from an earlier build. The
// property suites compare two code paths of one build; this suite pins plans
// across versions, so a speed-up that changes any plan fails here.
//
// The digest covers every tree entry in order (attribute set, members in
// insertion order with their parents, collected pairs), then the forest's
// collected pairs and the bits of its total cost. On a mismatch the test
// prints the new digest; re-record only for an intended plan change.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string_view>

#include "common/rng.h"
#include "planner/planner.h"
#include "task/task_manager.h"
#include "task/workload.h"

namespace remo {
namespace {

constexpr std::size_t kNodes = 40;
constexpr std::size_t kUniverse = 24;
constexpr std::size_t kAttrsPerNode = 16;

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
};

std::uint64_t plan_digest(const Topology& topo) {
  Digest d;
  d.add(topo.num_trees());
  for (const auto& e : topo.entries()) {
    d.add(e.attrs.size());
    for (AttrId a : e.attrs) d.add(a);
    d.add(e.tree.size());
    for (NodeId n : e.tree.members()) {
      d.add(n);
      d.add(e.tree.parent(n));
    }
    d.add(e.collected_pairs);
  }
  d.add(topo.collected_pairs());
  d.add(std::bit_cast<std::uint64_t>(topo.total_cost()));
  return d.h;
}

/// The fractional cost model scales capacities with its per-value cost, so
/// its input stays capacity-bound.
CostModel cost_for(std::string_view config) {
  return config == "fractional_cost" ? CostModel{7.3, 0.37} : CostModel{10.0, 1.0};
}

PlannerOptions options_for(std::string_view config) {
  PlannerOptions o;
  o.partition_scheme = PartitionScheme::kRemo;
  o.tree.scheme = TreeScheme::kAdaptive;
  o.allocation = AllocationScheme::kOrdered;
  o.max_candidates = 16;
  o.max_iterations = 256;
  o.num_threads = 1;
  if (config == "star") o.tree.scheme = TreeScheme::kStar;
  if (config == "chain") o.tree.scheme = TreeScheme::kChain;
  if (config == "max_avb") o.tree.scheme = TreeScheme::kMaxAvb;
  if (config == "node_reattach") o.tree.branch_reattach = false;
  if (config == "full_scope") o.tree.subtree_only = false;
  if (config == "uniform") o.allocation = AllocationScheme::kUniform;
  if (config == "proportional") o.allocation = AllocationScheme::kProportional;
  if (config == "on_demand") o.allocation = AllocationScheme::kOnDemand;
  if (config == "sum_funnels")
    for (AttrId a = 0; a < kUniverse; a += 3)
      o.attr_specs.set_funnel(a, FunnelSpec{AggType::kSum});
  if (config == "half_weights")
    for (AttrId a = 0; a < kUniverse; a += 2) o.attr_specs.set_weight(a, 0.5);
  return o;
}

/// The repository benchmark's `plan` input shape at n = 40: node capacity
/// 60·a, collector 15·a·n, small_tasks(n) — capacity-bound, so builds run
/// the adjusting procedure.
std::uint64_t plan_and_digest(std::string_view config, std::uint64_t seed) {
  const CostModel cost = cost_for(config);
  SystemModel system(kNodes, 60.0 * cost.per_value, cost);
  system.set_collector_capacity(15.0 * cost.per_value *
                                static_cast<double>(kNodes));
  Rng rng{seed};
  system.assign_random_attributes(kUniverse, kAttrsPerNode, rng);
  WorkloadGenerator gen(system, WorkloadConfig{.attr_universe = kUniverse},
                        rng());
  TaskManager manager(&system);
  for (auto& t : gen.small_tasks(kNodes)) manager.add_task(std::move(t));
  const PairSet pairs = manager.dedup(system.num_vertices());
  const Topology topo = Planner(system, options_for(config)).plan(pairs);
  EXPECT_TRUE(topo.validate(system)) << config << " seed " << seed;
  EXPECT_LT(topo.coverage(), 1.0) << config << " seed " << seed
                                  << ": input is not capacity-bound";
  return plan_digest(topo);
}

struct Golden {
  std::string_view config;
  std::uint64_t seed;
  std::uint64_t digest;
};

// Recorded from the build before the builder's per-round memo and single
// unlink; every later build must reproduce them.
constexpr Golden kGolden[] = {
    {"adaptive", 1, 0x701be66b7830be08ULL},
    {"adaptive", 2, 0x72a793f31c079184ULL},
    {"star", 1, 0x3865da2722529a73ULL},
    {"star", 2, 0x4285ce4484fca4c9ULL},
    {"chain", 1, 0x17d3720be5fc277fULL},
    {"chain", 2, 0x4c6d461eca20c6d6ULL},
    {"max_avb", 1, 0x7aa83a8d95cd133dULL},
    {"max_avb", 2, 0x4285ce4484fca4c9ULL},
    {"node_reattach", 1, 0x2b978b4e66847dc4ULL},
    {"node_reattach", 2, 0x262954dfd30506b1ULL},
    {"full_scope", 1, 0x0fcefe05b48fc597ULL},
    {"full_scope", 2, 0x72a793f31c079184ULL},
    {"uniform", 1, 0x80712bd0f9d8c106ULL},
    {"uniform", 2, 0x14c56ca25b213eedULL},
    {"proportional", 1, 0x80712bd0f9d8c106ULL},
    {"proportional", 2, 0x14c56ca25b213eedULL},
    {"on_demand", 1, 0xa53963e9bdde18e1ULL},
    {"on_demand", 2, 0xe246581c02c29edeULL},
    {"sum_funnels", 1, 0x60870d8e5b9ba52bULL},
    {"sum_funnels", 2, 0xe6bf33b3076cf891ULL},
    {"half_weights", 1, 0xe43ef156054855c7ULL},
    {"half_weights", 2, 0x7353c8ff27f2b7faULL},
    {"fractional_cost", 1, 0xa56094c0896434bcULL},
    {"fractional_cost", 2, 0x6792f715b861c4ddULL},
};

TEST(PlanGolden, DigestsMatchRecordedPlans) {
  for (const Golden& g : kGolden) {
    const std::uint64_t got = plan_and_digest(g.config, g.seed);
    EXPECT_EQ(got, g.digest) << "{\"" << g.config << "\", " << g.seed
                             << ", 0x" << std::hex << got << "ULL},";
  }
}

}  // namespace
}  // namespace remo
