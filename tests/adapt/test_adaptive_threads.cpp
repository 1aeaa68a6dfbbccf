// Thread invariance of the adaptive path (DESIGN.md §7): a delta replan
// refines the forest by first improvement over its merge and split lists,
// which the evaluation engine scores concurrently. Over a seeded churn
// sequence, every replan's forest and report must be the same at every
// evaluation thread count — including candidates_evaluated, which counts
// each list's serial prefix and not the ranks other threads scored past
// the winner.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "adapt/adaptive_planner.h"
#include "common/rng.h"
#include "task/task_manager.h"
#include "task/workload.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};
constexpr std::size_t kUniverse = 24;
constexpr std::size_t kReplans = 32;

SystemModel make_system() {
  SystemModel s(60, 120.0, kCost);
  s.set_collector_capacity(480.0);
  Rng rng{3};
  s.assign_random_attributes(kUniverse, 8, rng);
  return s;
}

/// The initial pair set and kReplans non-empty task deltas of one seeded
/// churn sequence, recorded once so every planner replays the same one.
struct ChurnSequence {
  PairSet initial;
  std::vector<TaskDelta> deltas;
};

ChurnSequence record_churn(const SystemModel& system, std::uint64_t seed) {
  TaskManager manager(&system);
  WorkloadGenerator gen(system, WorkloadConfig{.attr_universe = kUniverse}, seed);
  for (auto& t : gen.small_tasks(25)) manager.add_task(std::move(t));
  ChurnSequence seq{manager.dedup(system.num_vertices()), {}};
  Rng churn{seed * 977};
  while (seq.deltas.size() < kReplans) {
    TaskDelta delta = apply_update_batch(manager, system, kUniverse, churn, 0.1).delta;
    if (!delta.pairs.empty()) seq.deltas.push_back(std::move(delta));
  }
  return seq;
}

/// What one replan committed and reported.
struct Replan {
  std::vector<TopologyEdge> edges;
  double cost = 0.0;
  std::size_t adaptation_messages = 0;
  std::size_t operations_applied = 0;
  std::size_t operations_throttled = 0;
  std::size_t candidates_evaluated = 0;
};

std::vector<Replan> replay(const SystemModel& system, const ChurnSequence& seq,
                           AdaptScheme scheme, std::size_t threads) {
  PlannerOptions o;
  o.max_candidates = 16;
  o.max_iterations = 64;
  o.num_threads = threads;
  AdaptivePlanner planner(system, o, scheme);
  planner.initialize(seq.initial, 0.0);
  std::vector<Replan> out;
  for (std::size_t k = 0; k < seq.deltas.size(); ++k) {
    const AdaptReport r = planner.apply_delta(seq.deltas[k], static_cast<double>(k + 1));
    out.push_back({planner.topology().edges(), planner.topology().total_cost(),
                   r.adaptation_messages, r.operations_applied,
                   r.operations_throttled, r.candidates_evaluated});
  }
  return out;
}

TEST(AdaptiveThreadInvariance, DeltaReplansIdenticalAcrossThreadCounts) {
  const SystemModel system = make_system();
  const ChurnSequence seq = record_churn(system, 23);
  for (const AdaptScheme scheme : {AdaptScheme::kAdaptive, AdaptScheme::kNoThrottle}) {
    const std::vector<Replan> serial = replay(system, seq, scheme, 1);
    ASSERT_EQ(serial.size(), kReplans);
    // The sequence must exercise the search: operations adopted and, under
    // ADAPTIVE, operations throttled.
    std::size_t applied = 0, throttled = 0;
    for (const Replan& r : serial) {
      applied += r.operations_applied;
      throttled += r.operations_throttled;
    }
    EXPECT_GT(applied, 0u) << to_string(scheme);
    if (scheme == AdaptScheme::kAdaptive) {
      EXPECT_GT(throttled, 0u);
    }

    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      const std::vector<Replan> got = replay(system, seq, scheme, threads);
      ASSERT_EQ(got.size(), serial.size());
      for (std::size_t k = 0; k < got.size(); ++k) {
        const Replan& want = serial[k];
        const Replan& r = got[k];
        SCOPED_TRACE(testing::Message() << to_string(scheme) << " threads=" << threads
                                        << " replan=" << k);
        EXPECT_EQ(r.edges, want.edges);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r.cost),
                  std::bit_cast<std::uint64_t>(want.cost))
            << r.cost << " vs " << want.cost;
        EXPECT_EQ(r.adaptation_messages, want.adaptation_messages);
        EXPECT_EQ(r.operations_applied, want.operations_applied);
        EXPECT_EQ(r.operations_throttled, want.operations_throttled);
        EXPECT_EQ(r.candidates_evaluated, want.candidates_evaluated);
      }
    }
  }
}

}  // namespace
}  // namespace remo
