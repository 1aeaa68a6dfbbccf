// Workload `plan`: cold full REMO plans of the Sec. 7 random-attribute
// inputs that bench_scalability's node sweep uses (n = 120, universe 36,
// 24 observable attributes per node, small_tasks(n), node capacity 60,
// collector 15·n, C = 10, a = 1).
//
// Why: the plan is capacity-bound (about 55% of the requested pairs are
// collected), so tree construct / adjust and parallel candidate scoring
// dominate, and the memo cache hits rarely. No service or churn code
// runs. This is where the planner's per-evaluation cost lives.
//
// One step is dedup (TaskManager add_task + dedup) followed by
// Planner::plan on a fresh Planner, so the memo cache starts cold. Steps
// form a closed loop; each plans a fresh seeded input. Plan time varies
// by about a fifth from input to input, so a run's median is only as
// steady as the number of inputs it plans: a run at n = 120 plans about
// 2.5 times as many inputs as one at n = 200.
#include <optional>

#include "bench.h"
#include "common/rng.h"
#include "planner/evaluator.h"
#include "planner/planner.h"
#include "task/task_manager.h"
#include "task/workload.h"

namespace remo::perfbench {
namespace {

constexpr CostModel kCost{10.0, 1.0};
constexpr std::size_t kNodes = 120;
constexpr std::size_t kUniverse = 36;
constexpr std::size_t kAttrsPerNode = 24;
constexpr Capacity kNodeCapacity = 60.0;
/// Set-ups per run; setup_s is their median (the first 2-thread plan of a
/// process swings by half its length).
constexpr int kSetups = 5;

struct PlanInput {
  SystemModel system;
  std::vector<MonitoringTask> tasks;
};

PlanInput make_input(std::uint64_t seed) {
  SystemModel system(kNodes, kNodeCapacity, kCost);
  system.set_collector_capacity(15.0 * static_cast<double>(kNodes));
  Rng rng{seed};
  system.assign_random_attributes(kUniverse, kAttrsPerNode, rng);
  WorkloadGenerator gen(system, WorkloadConfig{.attr_universe = kUniverse},
                        rng());
  std::vector<MonitoringTask> tasks = gen.small_tasks(kNodes);
  return PlanInput{std::move(system), std::move(tasks)};
}

PlannerOptions plan_options() {
  PlannerOptions o;
  o.partition_scheme = PartitionScheme::kRemo;
  o.tree.scheme = TreeScheme::kAdaptive;
  o.allocation = AllocationScheme::kOrdered;
  o.max_candidates = 16;
  o.max_iterations = 256;
  o.num_threads = kEvalThreads;
  return o;
}

struct StepResult {
  Topology topo;
  EvalStats stats;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
};

StepResult plan_step(const PlanInput& in, Tracer& tracer, std::uint64_t step) {
  tracer.set_step(step);
  StepResult out;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  {
    const Tracer::Scope span(tracer, "step.plan");
    PairSet pairs;
    {
      const Tracer::Scope s(tracer, "task.dedup");
      TaskManager manager(&in.system);
      for (const MonitoringTask& t : in.tasks) manager.add_task(t);
      pairs = manager.dedup(in.system.num_vertices());
    }
    const Tracer::Scope s(tracer, "planner.plan", /*adopt_library=*/true);
    const Planner planner(in.system, plan_options());
    out.topo = planner.plan(pairs);
    out.stats = planner.last_stats();
  }
  out.seconds = seconds_between(t0, Clock::now());
  out.cpu_seconds = process_cpu_seconds() - cpu0;
  return out;
}

/// Identity of a plan: its links, collected pairs and message volume.
std::uint64_t plan_digest(const Topology& topo) {
  std::vector<NodeAttrPair> links;
  for (const TopologyEdge& e : topo.edges()) links.push_back({e.child, e.parent});
  return digest_pairs(links) ^ (digest_pairs(collected_pairs_of(topo)) * 31) ^
         static_cast<std::uint64_t>(topo.total_cost() * 1024.0);
}

}  // namespace

RunResult run_plan(const RunConfig& cfg, Tracer& tracer) {
  RunResult result;
  Tracer off(false);
  Rng input_seeds{cfg.seed};  // one input per step, in order

  auto check = [&result](const PlanInput& in, const Topology& topo,
                         std::optional<std::uint64_t> expected, const char* what) {
    ++result.attempted;
    const bool valid = topo.validate(in.system);
    const bool same = !expected || *expected == plan_digest(topo);
    if (valid && same) return;
    ++result.failed;
    result.fail(std::string(what) + (valid ? ": differs from the same input's first plan"
                                           : ": violates capacity constraints"));
  };

  // Set-up: input generation plus one discarded warm-up plan (thread-pool
  // start, allocator growth), repeated on the fixed set-up input — which
  // also checks that repeated plans are identical.
  EndToEnd e2e;
  std::optional<std::uint64_t> setup_digest;
  for (int rep = 0; rep < kSetups; ++rep) {
    const auto t0 = Clock::now();
    const PlanInput in = make_input(kSetupSeed);
    const StepResult warm = plan_step(in, off, 0);
    e2e.setup_seconds.push_back(seconds_between(t0, Clock::now()));
    check(in, warm.topo, setup_digest, "set-up plan");
    setup_digest = plan_digest(warm.topo);
  }

  // Every step plans a fresh input, so a run's figures summarize the
  // input distribution rather than a few draws from it. The traced run
  // plans each input twice, untraced then traced: the pair gives the
  // trace overhead on equal inputs and one more identity check.
  std::vector<double> untraced_s, traced_s;
  std::vector<double> evaluations, build_ms, requested, collected;
  double eval_seconds = 0.0, hits = 0.0, lookups = 0.0, cpu = 0.0, wall = 0.0;
  double coverage = 0.0, cost_per_pair = 0.0;
  std::uint64_t step = 0;
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < cfg.seconds) {
    const PlanInput in = make_input(input_seeds());
    ++step;
    const StepResult r = plan_step(in, off, step);
    untraced_s.push_back(r.seconds);
    check(in, r.topo, std::nullopt, "plan");
    coverage += r.topo.coverage();
    const auto got = static_cast<double>(r.topo.collected_pairs());
    cost_per_pair += got > 0.0 ? r.topo.total_cost() / got : 0.0;
    if (!cfg.trace) continue;

    const StepResult t = plan_step(in, tracer, step);
    traced_s.push_back(t.seconds);
    check(in, t.topo, plan_digest(r.topo), "traced plan");
    evaluations.push_back(static_cast<double>(t.stats.evaluations));
    build_ms.push_back(t.stats.build_seconds * 1e3);
    eval_seconds += t.stats.evaluate_seconds;
    hits += static_cast<double>(t.stats.cache_hits);
    lookups += static_cast<double>(t.stats.cache_hits + t.stats.cache_misses);
    cpu += t.cpu_seconds;
    wall += t.seconds;
    requested.push_back(static_cast<double>(t.topo.total_pairs()));
    collected.push_back(got);
  }

  if (!cfg.trace) {
    const auto steps = static_cast<double>(untraced_s.size());
    e2e.step_seconds = untraced_s;
    e2e.step_work.assign(untraced_s.size(), 1.0);
    e2e.work_unit = "plans";
    e2e.coverage = coverage / steps;
    e2e.cost_per_pair = cost_per_pair / steps;
    add_end_to_end(result, e2e);
    return result;
  }

  LayerReport l;
  const auto traced_steps = static_cast<double>(traced_s.size());
  l.steps = traced_s.size();
  l.task_dedup_ms = median(durations_ms(tracer, "task.dedup"));
  l.planner_evaluations = median(evaluations);
  l.planner_iterations = static_cast<double>(count(tracer, "planner.iteration")) / traced_steps;
  const double total_evals = mean_of(evaluations) * traced_steps;
  l.planner_eval_us = total_evals > 0.0 ? eval_seconds / total_evals * 1e6 : 0.0;
  l.planner_build_full_ms = median(build_ms);
  std::vector<double> iteration_self = self_seconds_per_step(tracer, "planner.iteration");
  for (double& v : iteration_self) v *= 1e3;
  l.planner_iteration_self_ms = median(iteration_self);
  l.planner_cache_hit_ratio = lookups > 0.0 ? hits / lookups : 0.0;
  l.planner_parallel_eff = wall > 0.0 ? cpu / (wall * static_cast<double>(kEvalThreads)) : 0.0;
  l.planner_evaluations_per_replan = mean_of(evaluations);
  l.obs_trace_overhead = mean_of(traced_s) / mean_of(untraced_s) - 1.0;
  l.breakdown = breakdown(tracer, "step.plan");
  l.requested_pairs = median(requested);
  l.collected_pairs = median(collected);
  l.replan_step_share = 1.0;  // every step is a full plan
  add_layer_metrics(result, l);
  return result;
}

}  // namespace remo::perfbench
