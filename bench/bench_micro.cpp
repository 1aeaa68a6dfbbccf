// Micro-benchmarks (google-benchmark) for REMO's hot primitives: set
// algebra, tree attachment/feasibility, branch moves, whole-tree builds,
// partition operations, gain estimation, and simulator epochs. These are
// the building blocks whose costs the Sec. 5 optimizations target.
//
// On top of the google-benchmark suite, the binary emits a deterministic
// "tree-kernel throughput" table (walk / propagate / attach ops per
// second) through the bench telemetry harness, so `--json` produces a
// BENCH_micro.json the CI perf-smoke gate can diff against
// bench/baselines/ like the figure benches. `--kernels-only` skips the
// google-benchmark suite (CI uses it: the kernel table is the gated part).
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_support.h"
#include "common/rng.h"
#include "common/sorted_vector.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/augmentation.h"
#include "planner/planner.h"
#include "sim/simulator.h"
#include "task/workload.h"
#include "tree/builder.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

std::vector<AttrId> random_set(Rng& rng, std::size_t n, std::size_t universe) {
  auto idx = rng.sample(static_cast<std::uint32_t>(universe),
                        static_cast<std::uint32_t>(n));
  std::vector<AttrId> out(idx.begin(), idx.end());
  sort_unique(out);
  return out;
}

void BM_SetUnion(benchmark::State& state) {
  Rng rng{1};
  const auto a = random_set(rng, state.range(0), state.range(0) * 4);
  const auto b = random_set(rng, state.range(0), state.range(0) * 4);
  for (auto _ : state) benchmark::DoNotOptimize(set_union(a, b));
}
BENCHMARK(BM_SetUnion)->Arg(16)->Arg(256);

void BM_IntersectionSize(benchmark::State& state) {
  Rng rng{2};
  const auto a = random_set(rng, state.range(0), state.range(0) * 4);
  const auto b = random_set(rng, state.range(0), state.range(0) * 4);
  for (auto _ : state) benchmark::DoNotOptimize(intersection_size(a, b));
}
BENCHMARK(BM_IntersectionSize)->Arg(16)->Arg(256);

MonitoringTree chain_tree(std::size_t n, std::size_t attrs) {
  std::vector<TreeAttrSpec> specs;
  for (std::size_t m = 0; m < attrs; ++m)
    specs.push_back(TreeAttrSpec{static_cast<AttrId>(m), FunnelSpec{}, 1.0});
  MonitoringTree t(specs, 1e9, kCost);
  NodeId parent = kCollectorId;
  for (NodeId id = 1; id <= n; ++id) {
    t.attach(BuildItem{id, std::vector<std::uint32_t>(attrs, 1), 1e9}, parent);
    parent = id;
  }
  return t;
}

void BM_CanAttachDeep(benchmark::State& state) {
  auto tree = chain_tree(state.range(0), 4);
  const BuildItem item{9999, {1, 1, 1, 1}, 1e9};
  const NodeId deepest = static_cast<NodeId>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(tree.can_attach(item, deepest));
}
BENCHMARK(BM_CanAttachDeep)->Arg(16)->Arg(128);

// ---- tree-kernel probes (ISSUE 4): direct measurements of the arena's
// hot paths, so future kernel changes see regressions immediately. --------

/// Attach throughput: grow a 3-wide tree to `n` members, then tear it down
/// and grow it again every iteration. Dominated by try_attach (fused
/// feasibility walk + apply) and slot recycling.
void BM_AttachThroughput(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<TreeAttrSpec> specs{{0, FunnelSpec{}, 1.0}, {1, FunnelSpec{}, 1.0}};
  MonitoringTree t(specs, 1e9, kCost);
  std::vector<BuildItem> items;
  for (NodeId id = 1; id <= n; ++id)
    items.push_back(BuildItem{id, {1, 1}, 1e9});
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId parent = i < 3 ? kCollectorId : static_cast<NodeId>(i / 3);
      benchmark::DoNotOptimize(t.try_attach(items[i], parent));
    }
    state.PauseTiming();
    for (NodeId c : std::vector<NodeId>(t.children(kCollectorId)))
      (void)t.detach_branch(c);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AttachThroughput)->Arg(64)->Arg(512);

/// Feasibility-test throughput on a deep chain: the allocation-free upward
/// walk (scratch buffers, flat arrays) with no mutation.
void BM_FeasibilityWalk(benchmark::State& state) {
  auto tree = chain_tree(state.range(0), 4);
  const BuildItem item{9999, {1, 1, 1, 1}, 1e9};
  const NodeId deepest = static_cast<NodeId>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(tree.can_attach(item, deepest));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeasibilityWalk)->Arg(16)->Arg(128)->Arg(1024);

/// Rollback cost, snapshot vs journal: undo a detach+reattach of a k-wide
/// branch either by copying the whole n-member tree up front (the pre-arena
/// strategy) or by journaling and replaying inverses (the arena strategy).
/// The journal's cost scales with the branch, not the tree.
void BM_RollbackSnapshot(benchmark::State& state) {
  auto tree = chain_tree(state.range(0), 2);
  const NodeId branch = static_cast<NodeId>(state.range(0) - 8);
  for (auto _ : state) {
    MonitoringTree snapshot = tree;
    auto items = tree.detach_branch(branch);
    benchmark::DoNotOptimize(items);
    tree = std::move(snapshot);
  }
}
BENCHMARK(BM_RollbackSnapshot)->Arg(64)->Arg(512);

void BM_RollbackJournal(benchmark::State& state) {
  auto tree = chain_tree(state.range(0), 2);
  const NodeId branch = static_cast<NodeId>(state.range(0) - 8);
  for (auto _ : state) {
    tree.begin_journal();
    auto items = tree.detach_branch(branch);
    benchmark::DoNotOptimize(items);
    tree.rollback_journal();
  }
}
BENCHMARK(BM_RollbackJournal)->Arg(64)->Arg(512);

void BM_MoveBranch(benchmark::State& state) {
  auto tree = chain_tree(64, 2);
  // Bounce the deepest node between two parents.
  NodeId a = 32, b = 33;
  for (auto _ : state) {
    tree.move_branch(64, a);
    tree.move_branch(64, b);
  }
}
BENCHMARK(BM_MoveBranch);

void BM_BuildTree(benchmark::State& state) {
  const auto scheme = static_cast<TreeScheme>(state.range(1));
  std::vector<TreeAttrSpec> attrs{{0, FunnelSpec{}, 1.0}};
  std::vector<BuildItem> items;
  Rng rng{3};
  for (NodeId id = 1; id <= static_cast<NodeId>(state.range(0)); ++id)
    items.push_back(BuildItem{id, {1}, 40.0 * rng.uniform(0.8, 1.5)});
  const Capacity collector = static_cast<double>(state.range(0)) * 4.0;
  TreeBuildOptions opts;
  opts.scheme = scheme;
  for (auto _ : state)
    benchmark::DoNotOptimize(build_tree(attrs, items, collector, kCost, opts));
}
BENCHMARK(BM_BuildTree)
    ->Args({100, static_cast<long>(TreeScheme::kStar)})
    ->Args({100, static_cast<long>(TreeScheme::kChain)})
    ->Args({100, static_cast<long>(TreeScheme::kAdaptive)});

void BM_MergeGain(benchmark::State& state) {
  Rng rng{4};
  PairSet pairs(201);
  for (NodeId n = 1; n <= 200; ++n)
    for (AttrId a : random_set(rng, 10, 40)) pairs.add(n, a);
  // Two singleton sets' node lists, as the ranking gathers them.
  const auto n3 = pairs.nodes_with(3);
  const auto n17 = pairs.nodes_with(17);
  for (auto _ : state)
    benchmark::DoNotOptimize(estimate_merge_gain(intersection_size(n3, n17), kCost));
}
BENCHMARK(BM_MergeGain);

void BM_PlannerSmall(benchmark::State& state) {
  SystemModel system(40, 60.0, kCost);
  system.set_collector_capacity(2000.0);
  Rng rng{5};
  system.assign_random_attributes(16, 6, rng);
  PairSet pairs(41);
  for (NodeId n = 1; n <= 40; ++n)
    for (AttrId a : system.observable(n)) pairs.add(n, a);
  PlannerOptions o;
  o.max_candidates = 8;
  Planner planner(system, o);
  for (auto _ : state) benchmark::DoNotOptimize(planner.plan(pairs));
}
BENCHMARK(BM_PlannerSmall)->Unit(benchmark::kMillisecond);

// Observability overhead check (EXPERIMENTS.md "Bench telemetry"): the
// same planning run with instrumentation enabled vs disabled. The delta
// is the cost of trace spans + mirror metrics; the acceptance bar is ≤2%.
void BM_PlannerObs(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(state.range(0) != 0);
  SystemModel system(40, 60.0, kCost);
  system.set_collector_capacity(2000.0);
  Rng rng{5};
  system.assign_random_attributes(16, 6, rng);
  PairSet pairs(41);
  for (NodeId n = 1; n <= 40; ++n)
    for (AttrId a : system.observable(n)) pairs.add(n, a);
  PlannerOptions o;
  o.max_candidates = 8;
  Planner planner(system, o);
  for (auto _ : state) benchmark::DoNotOptimize(planner.plan(pairs));
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_PlannerObs)
    ->Arg(0)  // obs disabled (REMO_OBS_DISABLED=1 equivalent)
    ->Arg(1)  // obs enabled (spans + metrics recorded)
    ->Unit(benchmark::kMillisecond);

void BM_CounterAdd(benchmark::State& state) {
  obs::Registry registry;
  obs::Counter& c = registry.counter("bench.counter");
  for (auto _ : state) c.add(1);
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Registry registry;
  obs::Histogram& h =
      registry.histogram("bench.hist", obs::Histogram::time_bounds());
  double v = 1e-6;
  for (auto _ : state) {
    h.observe(v);
    v = v > 10.0 ? 1e-6 : v * 1.7;
  }
}
BENCHMARK(BM_HistogramObserve);

void BM_SpanRecord(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(state.range(0) != 0);
  obs::TraceRecorder recorder(1024);
  for (auto _ : state) {
    const obs::Span span("bench.span", &recorder);
    benchmark::DoNotOptimize(span.active());
  }
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_SpanRecord)->Arg(0)->Arg(1);

void BM_SimulatorEpoch(benchmark::State& state) {
  SystemModel system(100, 1e6, kCost);
  system.set_collector_capacity(1e9);
  PairSet pairs(101);
  for (NodeId n = 1; n <= 100; ++n) {
    system.set_observable(n, {0, 1, 2, 3});
    for (AttrId a = 0; a < 4; ++a) pairs.add(n, a);
  }
  PlannerOptions o;
  const auto topo = Planner(system, o).plan(pairs);
  RandomWalkSource src(pairs, 6);
  SimConfig cfg;
  cfg.warmup = 0;
  for (auto _ : state) {
    cfg.epochs = 10;
    benchmark::DoNotOptimize(simulate(system, topo, pairs, src, cfg));
  }
}
BENCHMARK(BM_SimulatorEpoch)->Unit(benchmark::kMillisecond);

// ---- deterministic kernel-throughput telemetry (perf-smoke gated) --------
//
// Fixed workloads, fixed iteration counts: the `checksum` column is an
// integer invariant of the work done (success counts + the exact-integer
// total cost), so the perf-smoke gate can require it to match the baseline
// bit-for-bit while the us/op column rides the 2x time gate.

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

void run_kernel_table() {
  bench::subbanner("tree-kernel throughput");
  Table t({"id", "kernel", "n", "iters", "us/op", "ops/sec", "checksum"});
  int id = 0;
  auto report = [&](const std::string& kernel, std::size_t n, std::size_t iters,
                    double secs, std::size_t checksum) {
    t.row()
        .add(++id)
        .add(kernel)
        .add(n)
        .add(iters)
        .add(secs * 1e6 / static_cast<double>(iters), 4)
        .add(static_cast<double>(iters) / secs, 0)
        .add(checksum);
  };

  // walk: the allocation-free upward feasibility walk (can_attach) from the
  // deepest vertex of an n-chain — n hops per op, walks/sec in ops/sec.
  for (std::size_t n : {std::size_t{16}, std::size_t{128}, std::size_t{1024}}) {
    auto tree = chain_tree(n, 4);
    const BuildItem item{9999, {1, 1, 1, 1}, 1e9};
    const NodeId deepest = static_cast<NodeId>(n);
    const std::size_t iters = 2'000'000 / n;
    std::size_t ok = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i)
      if (tree.can_attach(item, deepest)) ++ok;
    report("walk", n, iters, seconds_since(start),
           ok + static_cast<std::size_t>(tree.total_cost()));
  }

  // propagate: update_local at the deepest vertex of an n-chain, bouncing
  // the local counts so every op re-walks and re-propagates the full chain
  // (attrs/sec = ops/sec x 4). The tree ends back in its initial state.
  {
    const std::size_t n = 1024, iters = 8000;
    auto tree = chain_tree(n, 4);
    const NodeId deepest = static_cast<NodeId>(n);
    const std::vector<std::uint32_t> hi{2, 2, 2, 2}, lo{1, 1, 1, 1};
    std::size_t ok = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i)
      if (tree.update_local(deepest, i % 2 == 0 ? hi : lo)) ++ok;
    report("propagate", n, iters, seconds_since(start),
           ok + static_cast<std::size_t>(tree.total_cost()));
  }

  // attach: grow a 3-wide tree to n members and tear it down, repeatedly —
  // the builder's fused try_attach path plus slot recycling.
  {
    const std::size_t n = 512, rounds = 100;
    std::vector<TreeAttrSpec> specs{{0, FunnelSpec{}, 1.0}, {1, FunnelSpec{}, 1.0}};
    MonitoringTree tree(specs, 1e9, kCost);
    std::vector<BuildItem> items;
    for (NodeId v = 1; v <= static_cast<NodeId>(n); ++v)
      items.push_back(BuildItem{v, {1, 1}, 1e9});
    std::size_t ok = 0, cost = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        const NodeId parent = i < 3 ? kCollectorId : static_cast<NodeId>(i / 3);
        if (tree.try_attach(items[i], parent)) ++ok;
      }
      cost = static_cast<std::size_t>(tree.total_cost());
      for (NodeId c : std::vector<NodeId>(tree.children(kCollectorId)))
        (void)tree.detach_branch(c);
    }
    report("attach", n, rounds * n, seconds_since(start), ok + cost);
  }

  bench::emit(t);
}

}  // namespace
}  // namespace remo

int main(int argc, char** argv) {
  remo::bench::init("micro", argc, argv);
  bool kernels_only = false;
  // Strip the harness's own flags before handing argv to google-benchmark
  // (it rejects flags it does not recognize).
  std::vector<char*> gb_args;
  gb_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--kernels-only") {
      kernels_only = true;
      continue;
    }
    if (a == "--json") {
      if (i + 1 < argc && argv[i + 1][0] != '-') ++i;  // optional path operand
      continue;
    }
    gb_args.push_back(argv[i]);
  }
  remo::bench::banner("micro", "hot-primitive microbenchmarks");
  remo::run_kernel_table();
  if (kernels_only) return 0;
  int gb_argc = static_cast<int>(gb_args.size());
  benchmark::Initialize(&gb_argc, gb_args.data());
  if (benchmark::ReportUnrecognizedArguments(gb_argc, gb_args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
