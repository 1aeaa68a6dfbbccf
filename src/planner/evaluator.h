// The plan-evaluation engine: resource-aware scoring of candidate
// partition augmentations, extracted from the planner's guided local
// search (Sec. 3) and the adaptive planner's restricted search (Sec. 4.1)
// so that both share one hot path:
//
//   - candidates of one search iteration are evaluated concurrently on a
//     fixed thread pool (PlannerOptions::num_threads), with deterministic
//     commit: results land in candidate-rank slots and winners are chosen
//     by (score, rank), never by completion order, so the chosen topology
//     is bit-identical to serial evaluation;
//   - each candidate's replacement trees are built once: scoring keeps the
//     trees of every candidate that improves on the current plan, and the
//     commit assembles the winner from them instead of building it again;
//   - every build reads its members and local counts from the per-
//     attribute-set items templates of the one cache (tree_build_cache.h).
//
// Thread model (DESIGN.md §16): the evaluator itself owns no lock — its
// cross-thread state is exactly the annotated TreeBuildCache (capability
// `cache_.mutex_`), the ThreadPool's job hand-off, and the registry's
// lock-free metric objects. Pool tasks touch only their own rank slot,
// their task-local RebuildScratch, and those three annotated structures,
// which is why the engine needs no capability of its own and the TSA
// build proves the whole parallel section lock-correct.
//
// The engine also keeps the evaluation counters/timings (EvalStats) that
// plan(), the adaptive planner, and the Fig. 9/10 benches report. The live
// counters are `planner.*` metrics in an obs::Registry
// (PlannerOptions::metrics, defaulting to the global registry), so every
// registry snapshot — including the BENCH_*.json telemetry — carries them;
// EvalStats is the windowed view between reset_stats() and stats().
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "planner/planner.h"
#include "planner/tree_build_cache.h"

namespace remo {

class ThreadPool;

/// Counters/timings of the engine since the last reset_stats(). Snapshot
/// type — the live counters are registry metrics (see above).
struct EvalStats {
  /// Topologies built and scored: one per evaluated candidate, plus one
  /// per full-forest build (initial layout, re-layout escape, endpoint
  /// guard).
  std::size_t evaluations = 0;
  /// Items-template lookups served from the cache / computed fresh
  /// (tree_build_cache.h).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Wall-clock seconds spent evaluating candidates (parallel section).
  double evaluate_seconds = 0.0;
  /// Wall-clock seconds spent on full-forest builds.
  double build_seconds = 0.0;
};

class PlanEvaluator {
 public:
  PlanEvaluator(const SystemModel& system, PlannerOptions options);
  ~PlanEvaluator();

  PlanEvaluator(const PlanEvaluator&) = delete;
  PlanEvaluator& operator=(const PlanEvaluator&) = delete;

  /// One evaluated candidate: the rebuilt topology, its score, and the
  /// candidate's rank in the list it came from.
  struct Result {
    Topology topo;
    PlanScore score;
    std::size_t index = 0;
  };

  /// Must be called (by the owning search) whenever the pair set under
  /// evaluation may have changed. Invalidation is *scoped*: only items
  /// templates whose attribute sets intersect the change are evicted (the
  /// rest cannot read anything the change touched — see
  /// tree_build_cache.h), so templates survive churn that never touches
  /// their partitions.
  void sync_pairs(const PairSet& pairs);

  /// O(|delta|) variant of sync_pairs for callers that already know the
  /// exact change (the delta replanning path): advances the synced pair
  /// set by `delta` and evicts only the intersecting templates, without
  /// copying or re-diffing the full pair set. Requires sync_pairs to have
  /// run at least once.
  void apply_pairs_delta(const PairSetDelta& delta);

  /// The pair set the engine is currently synced to (nullptr before the
  /// first sync_pairs) — lets owners cross-check the incremental path
  /// under REMO_VALIDATE.
  const PairSet* synced_pairs() const noexcept {
    return last_pairs_.has_value() ? &*last_pairs_ : nullptr;
  }

  /// Full-forest build (initial layout / re-layout escape / endpoint
  /// guard). Counts one evaluation.
  Topology build_full(const PairSet& pairs, const Partition& partition);

  /// Best-of-candidates commit rule: the lowest-ranked candidate achieving
  /// the best strictly-improving score over `current` (identical to the
  /// serial scan that keeps the first strict improvement of the running
  /// best). Candidates are scored concurrently; the winner's topology is
  /// assembled from the trees its scoring built. nullopt when nothing
  /// improves.
  std::optional<Result> best_improving(const Topology& base, const PairSet& pairs,
                                       const std::vector<Augmentation>& candidates,
                                       const PlanScore& current);

  /// First-improvement commit rule: the lowest-ranked candidate whose
  /// score strictly improves `current`, scoring at most `max_evaluations`
  /// candidates (the adaptive planner's per-list budget). Candidates are
  /// scored in parallel chunks but the winner is the one a serial
  /// rank-order scan would pick; its topology is assembled from the trees
  /// its scoring built.
  std::optional<Result> first_improving(const Topology& base, const PairSet& pairs,
                                        const std::vector<Augmentation>& candidates,
                                        const PlanScore& current,
                                        std::size_t max_evaluations);

  /// Effective evaluation concurrency (PlannerOptions::num_threads, or
  /// hardware_concurrency when 0).
  std::size_t num_threads() const;

  EvalStats stats() const;
  void reset_stats();

  TreeBuildCache& cache() noexcept { return cache_; }

 private:
  struct Counters;
  /// Scores one candidate (rebuild_score). The trees its rebuild built
  /// are moved into `kept` only if the score improves on `current`.
  PlanScore score_candidate(const Topology& base, const Partition& p,
                            const PairSet& pairs, const Augmentation& aug,
                            const PlanScore& current, RebuildScratch& scratch,
                            std::vector<TreeEntry>& kept);
  /// Block dispatcher for the scoring loops: runs fn(i, scratch) for every
  /// i in [0, n), one pool task per contiguous rank-block of
  /// kCandidateBlockSize candidates (evaluator.cpp). The scratch is
  /// task-local and reused across the block's candidates, so per-candidate
  /// allocation and pool dispatch amortize over the block. Pure dispatch
  /// shape: every i runs exactly once into its own output slot, so callers
  /// see results identical to the serial loop.
  void for_each_blocked(std::size_t n,
                        const std::function<void(std::size_t, RebuildScratch&)>& fn);
  /// The scored winner: `base` without its victims plus the trees its
  /// scoring built — the topology rebuild_trees would build for it.
  Result materialize(const Topology& base, const Partition& p, const PairSet& pairs,
                     const std::vector<Augmentation>& candidates, std::size_t index,
                     const PlanScore& score, std::vector<TreeEntry> new_trees);
  ThreadPool& pool();

  const SystemModel* system_;
  PlannerOptions options_;
  TreeBuildCache cache_;
  std::unique_ptr<ThreadPool> pool_;  // lazily created, num_threads()-1 workers
  std::unique_ptr<Counters> counters_;
  std::optional<PairSet> last_pairs_;
};

}  // namespace remo
