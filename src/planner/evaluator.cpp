#include "planner/evaluator.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace remo {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

/// Engine metrics live in an obs::Registry (options.metrics, defaulting to
/// the global one) under the `planner.*` names, so a registry snapshot —
/// e.g. the one every bench writes into BENCH_*.json — carries the engine
/// counters with no extra plumbing. EvalStats is a *windowed* view of the
/// same metrics: reset_stats() captures baselines and stats() subtracts
/// them, which keeps per-plan() windows exact for the serial use the API
/// had before (registry counters themselves are cumulative).
struct PlanEvaluator::Counters {
  obs::Counter* evaluations = nullptr;
  obs::Counter* cache_hits = nullptr;    ///< registry mirror of cache_.hits()
  obs::Counter* cache_misses = nullptr;  ///< registry mirror of cache_.misses()
  obs::Counter* cache_invalidated = nullptr;  ///< templates evicted by churn
  obs::Gauge* evaluate_seconds = nullptr;
  obs::Gauge* build_seconds = nullptr;

  // EvalStats window baselines, captured by reset_stats(). Cache hit/miss
  // windows subtract TreeBuildCache's own lifetime counts — exact even
  // when several evaluators share one registry.
  std::uint64_t evals_base = 0;
  double evaluate_seconds_base = 0.0;
  double build_seconds_base = 0.0;
  std::size_t hits_base = 0;
  std::size_t misses_base = 0;

  /// Scope guard mirroring the cache counter deltas of one engine call
  /// into the registry (the cache increments from pool threads; the delta
  /// is taken on the calling thread around the whole parallel section).
  struct CacheWindow {
    Counters& c;
    const TreeBuildCache& cache;
    std::size_t h0, m0;
    CacheWindow(Counters& counters, const TreeBuildCache& build_cache)
        : c(counters), cache(build_cache), h0(cache.hits()), m0(cache.misses()) {}
    ~CacheWindow() {
      c.cache_hits->add(cache.hits() - h0);
      c.cache_misses->add(cache.misses() - m0);
    }
  };
};

PlanEvaluator::PlanEvaluator(const SystemModel& system, PlannerOptions options)
    : system_(&system),
      options_(std::move(options)),
      counters_(std::make_unique<Counters>()) {
  obs::Registry& reg = obs::registry_or_global(options_.metrics);
  counters_->evaluations = &reg.counter("planner.candidates_evaluated");
  counters_->cache_hits = &reg.counter("planner.cache_hits");
  counters_->cache_misses = &reg.counter("planner.cache_misses");
  counters_->cache_invalidated = &reg.counter("planner.cache_invalidated");
  counters_->evaluate_seconds = &reg.gauge("planner.evaluate_seconds");
  counters_->build_seconds = &reg.gauge("planner.build_seconds");
}

PlanEvaluator::~PlanEvaluator() = default;

std::size_t PlanEvaluator::num_threads() const {
  return options_.num_threads == 0 ? ThreadPool::default_concurrency()
                                   : options_.num_threads;
}

ThreadPool& PlanEvaluator::pool() {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(num_threads() - 1);
  return *pool_;
}

void PlanEvaluator::sync_pairs(const PairSet& pairs) {
  if (last_pairs_.has_value() && *last_pairs_ == pairs) return;
  if (last_pairs_.has_value() && last_pairs_->num_vertices() == pairs.num_vertices()) {
    // Scoped invalidation: evict only templates whose attribute sets the
    // change intersects; everything else is still exact.
    const PairSetDelta delta = diff(*last_pairs_, pairs);
    counters_->cache_invalidated->add(cache_.invalidate_attrs(delta.affected_attrs()));
  } else {
    cache_.clear();
  }
  last_pairs_ = pairs;
}

void PlanEvaluator::apply_pairs_delta(const PairSetDelta& delta) {
  if (delta.empty()) return;
  REMO_ASSERT(last_pairs_.has_value(),
              "apply_pairs_delta before the first sync_pairs — the engine has "
              "no pair set to advance");
  apply_delta(*last_pairs_, delta);
  counters_->cache_invalidated->add(cache_.invalidate_attrs(delta.affected_attrs()));
}

Topology PlanEvaluator::build_full(const PairSet& pairs, const Partition& partition) {
  const obs::Span span("planner.build_full");
  const Counters::CacheWindow cache_window(*counters_, cache_);
  const auto start = std::chrono::steady_clock::now();
  Topology topo = build_topology(*system_, pairs, partition, options_.attr_specs,
                                 options_.allocation, options_.tree, cache_);
  counters_->evaluations->add(1);
  counters_->build_seconds->add(seconds_since(start));
  return topo;
}

PlanEvaluator::Scored PlanEvaluator::score_in_rank_order(
    const Topology& base, const Partition& p, const PairSet& pairs,
    const std::vector<Augmentation>& candidates, std::size_t n,
    const PlanScore& current, bool stop_at_first) {
  Scored out{std::vector<PlanScore>(n), std::vector<std::vector<TreeEntry>>(n), n};
  std::atomic<std::size_t> next{0};
  // Lowest improving rank scored so far (first improvement only). It only
  // falls, and a loop stops at a claim at or above it. Ranks are claimed
  // in increasing order, so every rank below its final value was claimed
  // while that value was still above it, and was scored: the final value
  // is the rank a serial scan stops at, whatever the thread count or
  // timing.
  std::atomic<std::size_t> first{n};
  const auto claim_loop = [&](std::size_t) {
    RebuildScratch scratch;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= first.load()) return;
      const AugmentationFootprint fp = footprint(p, candidates[i]);
      std::vector<TreeEntry> built;
      const RebuildScore s = rebuild_score(base, *system_, pairs, fp.victims,
                                           fp.new_sets, options_.attr_specs,
                                           options_.allocation, options_.tree,
                                           cache_, scratch, built);
      out.scores[i] = PlanScore{s.collected, s.cost};
      // Only a candidate that improves on `current` can win, so only its
      // trees are kept for the commit.
      if (!improves(out.scores[i], current)) continue;
      out.trees[i] = std::move(built);
      if (!stop_at_first) continue;
      std::size_t lowest = first.load();
      while (i < lowest && !first.compare_exchange_weak(lowest, i)) {
      }
    }
  };
  const std::size_t loops = std::min(num_threads(), n);
  if (loops <= 1) {
    claim_loop(0);
  } else {
    pool().parallel_for(loops, claim_loop);
  }
  out.first = first.load();
  return out;
}

PlanEvaluator::Result PlanEvaluator::materialize(
    const Topology& base, const Partition& p, const PairSet& pairs,
    const std::vector<Augmentation>& candidates, std::size_t index,
    const PlanScore& score, std::vector<TreeEntry> new_trees) {
  const AugmentationFootprint fp = footprint(p, candidates[index]);
  return Result{assemble_rebuild(base, fp.victims, std::move(new_trees),
                                 pairs.total_pairs()),
                score, index};
}

std::optional<PlanEvaluator::Result> PlanEvaluator::best_improving(
    const Topology& base, const PairSet& pairs,
    const std::vector<Augmentation>& candidates, const PlanScore& current) {
  const obs::Span span("planner.evaluate");
  const Counters::CacheWindow cache_window(*counters_, cache_);
  const auto start = std::chrono::steady_clock::now();
  const Partition p = base.partition();
  Scored scored = score_in_rank_order(base, p, pairs, candidates, candidates.size(),
                                      current, /*stop_at_first=*/false);
  counters_->evaluations->add(candidates.size());

  // Serial rank-order scan: strict improvement over the running best, so
  // ties go to the lowest-ranked candidate — identical to serial search.
  std::optional<std::size_t> best;
  PlanScore best_score = current;
  for (std::size_t i = 0; i < scored.scores.size(); ++i) {
    if (improves(scored.scores[i], best_score)) {
      best_score = scored.scores[i];
      best = i;
    }
  }
  std::optional<Result> out;
  if (best)
    out = materialize(base, p, pairs, candidates, *best, best_score,
                      std::move(scored.trees[*best]));
  counters_->evaluate_seconds->add(seconds_since(start));
  return out;
}

std::optional<PlanEvaluator::Result> PlanEvaluator::first_improving(
    const Topology& base, const PairSet& pairs,
    const std::vector<Augmentation>& candidates, const PlanScore& current,
    std::size_t max_evaluations) {
  const obs::Span span("planner.evaluate");
  const Counters::CacheWindow cache_window(*counters_, cache_);
  const auto start = std::chrono::steady_clock::now();
  const Partition p = base.partition();
  const std::size_t budget = std::min(candidates.size(), max_evaluations);
  Scored scored = score_in_rank_order(base, p, pairs, candidates, budget, current,
                                      /*stop_at_first=*/true);
  const std::size_t winner = scored.first;
  std::optional<Result> found;
  if (winner < budget)
    found = materialize(base, p, pairs, candidates, winner, scored.scores[winner],
                        std::move(scored.trees[winner]));
  // The serial prefix: ranks scored past the winner by other threads are
  // not counted, so the count does not depend on the thread count.
  const std::size_t evaluated = found ? winner + 1 : budget;
  counters_->evaluations->add(evaluated);
  counters_->evaluate_seconds->add(seconds_since(start));
  return found;
}

EvalStats PlanEvaluator::stats() const {
  EvalStats s;
  s.evaluations = counters_->evaluations->value() - counters_->evals_base;
  s.cache_hits = cache_.hits() - counters_->hits_base;
  s.cache_misses = cache_.misses() - counters_->misses_base;
  s.evaluate_seconds =
      counters_->evaluate_seconds->value() - counters_->evaluate_seconds_base;
  s.build_seconds =
      counters_->build_seconds->value() - counters_->build_seconds_base;
  return s;
}

void PlanEvaluator::reset_stats() {
  counters_->evals_base = counters_->evaluations->value();
  counters_->evaluate_seconds_base = counters_->evaluate_seconds->value();
  counters_->build_seconds_base = counters_->build_seconds->value();
  counters_->hits_base = cache_.hits();
  counters_->misses_base = cache_.misses();
}

}  // namespace remo
