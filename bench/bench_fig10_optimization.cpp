// Fig. 10 — "Speedup of optimization schemes".
//
// CPU-time speedup of the Sec. 5.1 tree-adjustment optimizations over the
// basic adjusting procedure (node-by-node reattaching searched over the
// whole tree):
//
//   BRANCH    branch-based reattaching only (5.1.1)
//   SUBTREE   subtree-only searching only (5.1.2)
//   BOTH      the production configuration
//
// Methodology follows the paper: the adjusting procedure itself is timed,
// on identical saturated trees (a congested hub holding several deep
// branches — exactly the state the construction procedure hands to the
// adjuster), so every variant performs the same logical operation:
//
//   (a) speedup vs tree size (number of member nodes)
//   (b) speedup vs branch count (branch size varies inversely)
//
// The value penalty of the optimized configuration (< 2% in the paper) is
// measured separately on full topology plans.
#include <array>
#include <chrono>
#include <utility>
#include <vector>

#include "bench/bench_support.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "tree/builder.h"

namespace remo::bench {
namespace {

constexpr CostModel kCost{10.0, 1.0};

/// A saturated tree: `branches` chains of `chain_len` nodes hang off one
/// congested hub node under the collector. Node capacities leave just
/// enough slack that relocating a branch is possible but takes search.
struct SaturatedFixture {
  MonitoringTree tree;
  std::vector<NodeId> congested;
  Capacity min_demand;
};

SaturatedFixture make_fixture(std::size_t hubs, std::size_t branches,
                              std::size_t chain_len) {
  std::vector<TreeAttrSpec> attrs{{0, FunnelSpec{}, 1.0}};
  // Each hub receives `branches` messages and relays everything; the first
  // hub is the congested node whose branch the adjuster must relocate. Its
  // subtree is only 1/hubs of the tree, which is what the subtree-only
  // search scope exploits.
  const double hub_need =
      static_cast<double>(branches) * kCost.message_cost(chain_len) +
      kCost.message_cost(branches * chain_len + 1);
  MonitoringTree tree(attrs, 1e9, kCost);
  NodeId next = 1;
  NodeId first_hub = kNoNode;
  for (std::size_t h = 0; h < hubs; ++h) {
    const NodeId hub = next++;
    if (h == 0) first_hub = hub;
    tree.attach(BuildItem{hub, {1}, hub_need}, kCollectorId);
    for (std::size_t b = 0; b < branches; ++b) {
      NodeId parent = hub;
      for (std::size_t i = 0; i < chain_len; ++i) {
        // Chain members can absorb one extra relocated chain below them.
        const double avail = kCost.message_cost(chain_len * 2) +
                             kCost.message_cost(chain_len) + 8.0;
        const NodeId id = next++;
        tree.attach(BuildItem{id, {1}, avail}, parent);
        parent = id;
      }
    }
  }
  return SaturatedFixture{std::move(tree), {first_hub}, kCost.message_cost(1)};
}

/// Median adjusting time, in seconds, of the four variants in the table's
/// column order: basic, BRANCH, SUBTREE, BOTH. Each rep runs every variant
/// once, in turn, on a fresh copy of the fixture (so each performs the same
/// move) and times it on its own; the median rep is reported, so a
/// preemption or a drift of the host lands on single reps and cannot move
/// a cell.
std::array<double, 4> time_adjusters(const SaturatedFixture& fixture) {
  constexpr int kReps = 20;
  constexpr std::array<std::pair<bool, bool>, 4> kVariants = {
      {{false, false}, {true, false}, {false, true}, {true, true}}};
  std::array<std::vector<double>, 4> reps;
  for (int r = 0; r < kReps; ++r) {
    for (std::size_t v = 0; v < kVariants.size(); ++v) {
      TreeBuildOptions opts;
      opts.scheme = TreeScheme::kAdaptive;
      opts.branch_reattach = kVariants[v].first;
      opts.subtree_only = kVariants[v].second;
      MonitoringTree tree = fixture.tree;
      const auto start = std::chrono::steady_clock::now();
      adjust_tree_once(tree, fixture.congested, fixture.min_demand, opts);
      reps[v].push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count());
    }
  }
  std::array<double, 4> median{};
  for (std::size_t v = 0; v < reps.size(); ++v) median[v] = percentile(reps[v], 50.0);
  return median;
}

struct Shape {
  std::size_t hubs;
  std::size_t branches;
  std::size_t chain_len;
};

void speedup_sweep(const std::string& title, const std::vector<Shape>& shapes,
                   bool label_nodes) {
  subbanner(title);
  Table t({label_nodes ? "tree nodes" : "hubs", "basic (us)",
           "BRANCH speedup", "SUBTREE speedup", "BOTH speedup"});
  for (const auto& [hubs, branches, chain_len] : shapes) {
    const auto [basic, branch_only, subtree_only, both] =
        time_adjusters(make_fixture(hubs, branches, chain_len));
    t.row()
        .add(static_cast<long long>(label_nodes
                                        ? hubs * (branches * chain_len + 1)
                                        : hubs))
        .add(basic * 1e6, 1)
        .add(basic / branch_only, 2)
        .add(basic / subtree_only, 2)
        .add(basic / both, 2);
  }
  emit(t);
}

void penalty_sweep() {
  subbanner("value penalty of the optimized adjuster on full plans (paper: <2%)");
  Table t({"nodes", "basic collected", "BOTH collected", "penalty %"});
  for (std::size_t n : {60u, 120u, 240u}) {
    Scenario s(n, 24, 8, 8.0 * kCost.message_cost(1) + 30.0, 4000.0, kCost, 3);
    s.monitor_everything();
    auto run = [&](bool branch, bool subtree) {
      PlannerOptions o = planner_options(PartitionScheme::kSingletonSet);
      o.tree.branch_reattach = branch;
      o.tree.subtree_only = subtree;
      return Planner(s.system, o).plan(s.pairs).collected_pairs();
    };
    const auto basic = run(false, false);
    const auto both = run(true, true);
    const double penalty =
        basic == 0 ? 0.0
                   : 100.0 *
                         (static_cast<double>(basic) - static_cast<double>(both)) /
                         static_cast<double>(basic);
    t.row()
        .add(static_cast<long long>(n))
        .add(static_cast<long long>(basic))
        .add(static_cast<long long>(both))
        .add(penalty, 2);
  }
  emit(t);
}

/// One timed full planning run on a fresh engine; reports the best of
/// `reps` runs.
struct PlanTiming {
  double seconds = 0.0;
  std::size_t collected = 0;
};

template <class Workload>
PlanTiming time_plan(const Workload& s, std::size_t threads, int reps) {
  PlannerOptions o = planner_options(PartitionScheme::kRemo);
  o.max_candidates = 32;
  o.num_threads = threads;
  PlanTiming best;
  best.seconds = 1e100;
  for (int r = 0; r < reps; ++r) {
    Planner planner(s.system, o);
    const auto start = std::chrono::steady_clock::now();
    const auto topo = planner.plan(s.pairs);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (secs < best.seconds) best = PlanTiming{secs, topo.collected_pairs()};
  }
  return best;
}

/// Clustered cost-sharing workload: `clusters` node groups, each observing
/// its own block of `attrs_per_cluster` attributes. Merges are profitable
/// only within a cluster, so the candidate list is stable across search
/// iterations.
struct ClusteredWorkload {
  SystemModel system;
  PairSet pairs;

  ClusteredWorkload(std::size_t n, std::size_t clusters,
                    std::size_t attrs_per_cluster, Capacity node_cap,
                    Capacity collector_cap)
      : system(n, node_cap, kCost), pairs(n + 1) {
    system.set_collector_capacity(collector_cap);
    for (NodeId id = 1; id <= n; ++id) {
      const std::size_t c = (id - 1) % clusters;
      std::vector<AttrId> attrs;
      for (std::size_t k = 0; k < attrs_per_cluster; ++k)
        attrs.push_back(static_cast<AttrId>(c * attrs_per_cluster + k));
      system.set_observable(id, attrs);
      for (AttrId a : attrs) pairs.add(id, a);
    }
  }
};

void planning_engine_sweep() {
  subbanner(
      "plan-evaluation engine: wall-clock planning time, serial vs parallel "
      "(identical plans)");
  const std::size_t hw = ThreadPool::default_concurrency();
  std::printf("hardware threads: %zu\n", hw);
  Table t({"nodes", "serial (ms)", "parallel (ms)", "speedup", "collected"});
  for (std::size_t n : {80u, 160u, 320u}) {
    // Ample capacity: planning is search-bound.
    ClusteredWorkload s(n, 3, 8, 1e6, 1e7);
    const auto serial = time_plan(s, 1, 3);
    const auto parallel = time_plan(s, hw, 3);
    t.row()
        .add(static_cast<long long>(n))
        .add(serial.seconds * 1e3, 1)
        .add(parallel.seconds * 1e3, 1)
        .add(serial.seconds / parallel.seconds, 2)
        .add(static_cast<long long>(parallel.collected));
    if (serial.collected != parallel.collected)
      std::printf("!! collected pairs diverged at n=%zu — engine broke "
                  "determinism\n", n);
  }
  emit(t);
}

}  // namespace
}  // namespace remo::bench

int main(int argc, char** argv) {
  remo::bench::init("fig10_optimization", argc, argv);
  remo::bench::banner("Fig. 10",
                      "speedup of the Sec. 5.1 tree-adjustment optimizations "
                      "(paper: up to ~11x)");
  remo::bench::speedup_sweep(
      "Fig. 10a: speedup vs tree size (8 hubs of 4 branches, growing chains)",
      {{8, 4, 2}, {8, 4, 4}, {8, 4, 8}, {8, 4, 16}, {8, 4, 32}}, true);
  remo::bench::speedup_sweep(
      "Fig. 10b: speedup vs hub count (~512 nodes total)",
      {{2, 4, 64}, {4, 4, 32}, {8, 4, 16}, {16, 4, 8}, {32, 4, 4}}, false);
  remo::bench::penalty_sweep();
  remo::bench::planning_engine_sweep();
  return 0;
}
