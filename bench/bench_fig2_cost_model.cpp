// Fig. 2 — "CPU usage versus increasing message number/size".
//
// The paper measured, on a BlueGene/P node, (i) root CPU utilization of a
// star network growing from 16 to 256 senders (~6% -> ~68%, linear in the
// number of messages) and (ii) the cost of receiving one message as its
// value count grows from 1 to 256 (0.2% -> 1.4%). This bench reproduces
// both series from our cost model — calibrated to the paper's two anchor
// points — and then cross-checks the message-count series against the
// simulator's measured collector utilization on an actual star topology.
#include "bench/bench_support.h"
#include "planner/topology.h"
#include "planner/tree_build_cache.h"
#include "sim/simulator.h"

namespace remo::bench {
namespace {

// Calibration: 16 messages ≈ 6% CPU -> C = 0.375%/msg; 1 -> 256 values
// raises a receive from 0.2% to 1.4% -> a ≈ 0.0047%/value.
constexpr double kCpuPerMessage = 6.0 / 16.0;
constexpr double kCpuPerValue = (1.4 - 0.2) / 255.0;

void message_count_series() {
  subbanner("Fig. 2 (left): root CPU% vs number of senders (star, 1 value/msg)");
  const CostModel cost{kCpuPerMessage, kCpuPerValue};
  Table t({"senders", "model CPU%", "simulated CPU%", "paper (approx)"});
  for (std::size_t n : {16u, 32u, 64u, 128u, 256u}) {
    // Star topology: every node sends one 1-value message per epoch.
    SystemModel system(n, 1e9, cost);
    system.set_collector_capacity(100.0);  // 100% CPU
    PairSet pairs(n + 1);
    for (NodeId id = 1; id <= n; ++id) {
      system.set_observable(id, {0});
      pairs.add(id, 0);
    }
    TreeBuildCache cache;
    auto topo = build_topology(system, pairs, Partition::one_set({0}),
                               AttrSpecTable{}, AllocationScheme::kOrdered,
                               TreeBuildOptions{TreeScheme::kStar}, cache);
    RandomWalkSource src(pairs, 1);
    SimConfig cfg;
    cfg.epochs = 30;
    cfg.warmup = 5;
    cfg.enforce_capacity = false;  // measure demand, not clipped usage
    const auto report = simulate(system, topo, pairs, src, cfg);
    const double model = static_cast<double>(n) * cost.message_cost(1);
    // Paper anchors: linear from 6% @16 to 68% @256.
    const double paper = 6.0 + (68.0 - 6.0) * (static_cast<double>(n) - 16.0) / 240.0;
    t.row()
        .add(static_cast<long long>(n))
        .add(model, 1)
        .add(report.collector_utilization * 100.0, 1)
        .add(paper, 1);
  }
  emit(t);
}

void message_size_series() {
  subbanner("Fig. 2 (right): cost of receiving ONE message vs values in it");
  const CostModel cost{0.2, kCpuPerValue};  // 1-value receive ≈ 0.2%
  Table t({"values/msg", "model CPU%", "paper (approx)"});
  for (std::size_t v : {1u, 16u, 64u, 128u, 256u}) {
    const double paper = 0.2 + 1.2 * (static_cast<double>(v) - 1.0) / 255.0;
    t.row()
        .add(static_cast<long long>(v))
        .add(cost.message_cost(v), 2)
        .add(paper, 2);
  }
  emit(t);
  std::printf(
      "\nTakeaway: per-message overhead dominates (256 1-value messages cost "
      "%.0f%% CPU; one 256-value message costs %.1f%%), which is why the\n"
      "planner must model C explicitly (Sec. 2.3).\n",
      256 * cost.message_cost(1), cost.message_cost(256));
}

}  // namespace
}  // namespace remo::bench

int main(int argc, char** argv) {
  remo::bench::init("fig2_cost_model", argc, argv);
  remo::bench::banner("Fig. 2", "CPU usage vs message number / size");
  remo::bench::message_count_series();
  remo::bench::message_size_series();
  return 0;
}
