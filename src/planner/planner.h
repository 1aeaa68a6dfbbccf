// The REMO monitoring planner (Sec. 3): guided local search over attribute
// partitions (partition augmentation) interleaved with resource-aware
// evaluation (constrained tree construction), producing the forest of
// monitoring trees the collector uses. The two state-of-the-art baselines
// — SINGLETON-SET (one tree per attribute, as PIER) and ONE-SET (one tree
// for everything) — are the search's degenerate endpoints and are exposed
// as schemes for the Fig. 5/6/8 comparisons.
#pragma once

#include <cstddef>
#include <memory>

#include "cost/system_model.h"
#include "partition/augmentation.h"
#include "partition/partition.h"
#include "planner/topology.h"
#include "task/pair_set.h"

namespace remo {

namespace obs {
class Registry;
}

enum class PartitionScheme : std::uint8_t { kSingletonSet, kOneSet, kRemo };

const char* to_string(PartitionScheme s) noexcept;

struct PlannerOptions {
  PartitionScheme partition_scheme = PartitionScheme::kRemo;
  TreeBuildOptions tree;
  AllocationScheme allocation = AllocationScheme::kOrdered;
  /// Guided augmentation: evaluate at most this many top-ranked candidates
  /// per iteration (the search-space trimming of Sec. 3.1.1).
  std::size_t max_candidates = 32;
  /// Local-search iteration cap (each accepted augmentation is one
  /// iteration); the search also stops at the first iteration where no
  /// evaluated candidate improves the objective.
  std::size_t max_iterations = 512;
  /// Funnels and frequency weights (Sec. 6); defaults are holistic / 1.0.
  AttrSpecTable attr_specs;
  /// Attribute pairs that must ride different trees (SSDP/DSDP, Sec. 6.2).
  ConflictConstraints conflicts;

  // --- search-quality switches (ablation knobs; see bench_ablation) ------
  /// Accept the best improving candidate of the evaluated list instead of
  /// the first one found (first-improvement is the paper's letter; best-of
  /// evaluated is measurably more robust under tight capacities).
  bool best_of_candidates = true;
  /// Evaluate a full fair-share re-layout of the current partition each
  /// iteration (escape hatch from demand-allocation hogging states).
  bool relayout_escape = true;
  /// Evaluate the coarsest legal partition (ONE-SET, or the greedy
  /// conflict coloring) and restart the climb from it when it wins.
  bool endpoint_guard = true;
  /// Add the recoverable-starvation term to the candidate ranking (plain
  /// ranking = the Sec. 3.1.1 capacity-saving estimate only).
  bool starvation_ranking = true;

  // --- evaluation-engine knobs (see planner/evaluator.h) -----------------
  /// Candidate evaluations per search iteration run concurrently on a
  /// fixed pool of this many threads (0 = hardware_concurrency). The
  /// committed plan is bit-identical for every value: score ties are
  /// broken by candidate rank, never by completion order.
  std::size_t num_threads = 0;

  // --- observability (src/obs, DESIGN.md §9) -----------------------------
  /// Metrics registry the evaluation engine publishes to (the counters
  /// behind Planner::last_stats / AdaptReport, and the `planner.*` series
  /// in BENCH_*.json). Null = the process-global registry; inject a
  /// private instance to keep a test or side-by-side run hermetic.
  obs::Registry* metrics = nullptr;
};

/// Lexicographic objective: more collected pairs first; then lower message
/// volume. Used both by the one-shot planner and the adaptive planner.
struct PlanScore {
  std::size_t collected = 0;
  Capacity cost = 0;
};

PlanScore score_of(const Topology& topo);
/// True iff `a` strictly improves on `b`.
bool improves(const PlanScore& a, const PlanScore& b);

/// Topology-aware candidate ranking used by the guided search. On top of
/// the plain partition-level gain estimates (partition/augmentation.h) it
/// scores *recoverable starvation*: an operation that rebuilds one tree
/// with committed capacity next to another with uncollected pairs can
/// re-spend the released capacity on those pairs, so candidates are
/// boosted by C · min(starved, collected) over the involved trees.
/// Merging two fully-starved trees releases nothing and ranks low — the
/// failure mode of the naive additive bonus.
///
/// `must_involve` (optional, one flag per topology entry) restricts
/// candidates to operations touching at least one flagged tree — the
/// reconstructed-tree restriction T of the adaptive planner (Sec. 4.1).
std::vector<Augmentation> rank_topology_augmentations(
    const Topology& topo, const PairSet& pairs, const CostModel& cost,
    const ConflictConstraints& conflicts, std::size_t max_candidates,
    const std::vector<bool>* must_involve = nullptr,
    bool starvation_bonus = true);

class PlanEvaluator;
struct EvalStats;

class Planner {
 public:
  Planner(const SystemModel& system, PlannerOptions options);

  const PlannerOptions& options() const noexcept { return options_; }
  const SystemModel& system() const noexcept { return *system_; }

  /// Full planning run for a (deduplicated) pair set.
  Topology plan(const PairSet& pairs) const;

  /// Builds the forest for an explicit partition (no search). Goes through
  /// the evaluation engine, so it reads (and warms) its items templates.
  Topology build_for_partition(const PairSet& pairs, const Partition& p) const;

  /// One guided local-search step: evaluates top-ranked neighboring
  /// partitions and commits the first strict improvement. Returns false if
  /// no evaluated candidate improves (search converged).
  bool improve_once(Topology& topo, const PairSet& pairs) const;

  /// Deep invariant hook (REMO_VALIDATE, DESIGN.md §11): the topology
  /// satisfies every capacity constraint, its implied partition is a valid
  /// partition of the pair set's attribute universe, and no conflict
  /// constraint is violated. Invoked after every committed planner result
  /// when validation is enabled; no-op (one relaxed atomic load) otherwise.
  void check_invariants(const Topology& topo, const PairSet& pairs) const;

  /// Diagnostics: candidate topologies evaluated by the last plan() call
  /// (accumulated since then across improve_once/build_for_partition).
  std::size_t last_evaluations() const noexcept;
  /// Full engine counters/timings over the same window.
  EvalStats last_stats() const;

  /// The shared evaluation engine (the adaptive planner's restricted
  /// search runs through the same instance). Copies of a Planner share it.
  PlanEvaluator& evaluator() const noexcept { return *evaluator_; }

 private:
  const SystemModel* system_;
  PlannerOptions options_;
  std::shared_ptr<PlanEvaluator> evaluator_;
};

}  // namespace remo
