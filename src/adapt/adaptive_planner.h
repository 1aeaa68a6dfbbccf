// Runtime topology adaptation (Sec. 4). When monitoring tasks are added,
// removed, or modified, the planner must trade topology quality against
// adaptation cost. Four schemes, matching the Fig. 9 comparison:
//
//   DIRECT-APPLY  apply the task change with minimum topology change: keep
//                 the attribute partition (new attributes become singleton
//                 sets) and rebuild only the affected trees;
//   REBUILD       full REMO search from scratch on every change — best
//                 topology, highest planning + reconstruction cost;
//   NO-THROTTLE   DIRECT-APPLY to get a base topology, then local search
//                 restricted to operations involving a reconstructed tree
//                 (the set T of Sec. 4.1), ranked by estimated
//                 cost-effectiveness;
//   ADAPTIVE      NO-THROTTLE plus cost-benefit throttling (Sec. 4.2): an
//                 operation is applied only when its control-message volume
//                 M_adapt stays below
//                   (T_cur − min T_adj,i) · (C_cur − C_adj).
//
// Delta replanning (DESIGN.md §13): besides the historic full-pair-set
// apply_update, the planner accepts structured TaskDeltas — apply_delta
// runs the identical adaptation core seeded straight from the delta (no
// full-set diff, no pair-set copy). Callers batch churn by merging deltas
// (TaskDelta::merge) and applying the merged delta once; the
// MonitoringSystem facade does this at its next read. Both entry points
// share run_adaptation, so delta-driven plans are bit-identical to
// full-pair-set plans on the same sequence.
#pragma once

#include <map>
#include <vector>

#include "obs/metrics.h"
#include "planner/planner.h"
#include "task/task_delta.h"

namespace remo {

enum class AdaptScheme : std::uint8_t {
  kDirectApply,
  kRebuild,
  kNoThrottle,
  kAdaptive,
};

const char* to_string(AdaptScheme s) noexcept;

/// What one initialize()/apply_update() call did — the raw series behind
/// Fig. 9a-9d.
struct AdaptReport {
  /// Wall-clock seconds spent planning (searching, building candidate
  /// trees). With the parallel evaluator this is elapsed time, not work.
  double planning_wall_seconds = 0.0;
  /// Process CPU seconds spent planning — the summed work across the
  /// evaluation engine's threads; diverges from wall by up to the engine's
  /// concurrency. (The historic `planning_seconds` field claimed CPU but
  /// measured wall clock; it is split into these two.)
  double planning_cpu_seconds = 0.0;
  /// Pairs added + removed by the (merged) delta this call applied.
  std::size_t pairs_changed = 0;
  /// Control messages needed to morph the deployed topology into the new
  /// one (multiset edge diff) — M_adapt.
  std::size_t adaptation_messages = 0;
  /// Merge/split operations adopted by the local search.
  std::size_t operations_applied = 0;
  /// Operations rejected by cost-benefit throttling.
  std::size_t operations_throttled = 0;
  /// Candidate topologies built & scored by the evaluation engine during
  /// this call (see planner/evaluator.h).
  std::size_t candidates_evaluated = 0;
  PlanScore score;
};

class AdaptivePlanner {
 public:
  AdaptivePlanner(const SystemModel& system, PlannerOptions options,
                  AdaptScheme scheme);

  const Topology& topology() const noexcept { return topology_; }
  AdaptScheme scheme() const noexcept { return scheme_; }
  /// The options the planner was built with (its spec table and conflicts
  /// cannot change afterwards).
  const PlannerOptions& options() const noexcept { return planner_.options(); }
  const PairSet& pairs() const noexcept { return pairs_; }

  /// Initial full plan (all schemes plan identically at t = `now`).
  AdaptReport initialize(const PairSet& pairs, double now);

  /// Applies a task-set change: `new_pairs` replaces the previous pair set.
  AdaptReport apply_update(const PairSet& new_pairs, double now);

  /// Incremental form of apply_update: advances the pair set by `delta`
  /// (pairs on nodes outside the vertex range are ignored, like dedup)
  /// and runs the same adaptation core — bit-identical to apply_update
  /// with the equivalent full pair set, at O(|delta|) instead of
  /// O(|pairs|) overhead outside the search itself.
  AdaptReport apply_delta(const TaskDelta& delta, double now);

  /// Replaces the deployed topology in place — the self-healing repair
  /// path (adapt/repair.h): subsequent apply_update calls adapt from the
  /// repaired forest. Trees whose attribute set is new to the throttle
  /// bookkeeping start their adjustment window at `now`.
  void adopt(Topology topo, double now);

  // ---- snapshot/restore (service/snapshot.h, DESIGN.md §14) -------------
  /// The throttle's per-tree adjustment stamps (T_adj,i), sorted by
  /// attribute set — plan-affecting state a snapshot must carry.
  const std::map<std::vector<AttrId>, double>& adjustment_stamps() const noexcept {
    return adjusted_at_;
  }
  double init_time() const noexcept { return init_time_; }
  /// Wholesale-replaces the planner's plan state with a previously
  /// captured one: pair set, deployed forest and throttle stamps. The
  /// planner must be freshly constructed (same system + options as the
  /// captured one); subsequent apply_update / apply_delta calls continue
  /// bit-identically to the planner the state was captured from.
  void restore(PairSet pairs, Topology topo,
               std::map<std::vector<AttrId>, double> stamps, double init_time);

 private:
  struct DeltaMetrics {
    obs::Counter* updates = nullptr;        ///< deltas fed in
    obs::Counter* replans = nullptr;        ///< non-empty adaptation runs
    obs::Counter* pairs_changed = nullptr;  ///< Σ |delta| over replans
    obs::Histogram* replan_seconds = nullptr;  ///< wall latency per replan
  };

  /// Shared adaptation core: `delta` is the exact change that advanced
  /// pairs_ (already applied); runs the scheme, refreshes accounting, and
  /// emits the report + planner.delta.* telemetry.
  AdaptReport run_adaptation(const PairSetDelta& delta, double now);

  /// DIRECT-APPLY base step: rebuild exactly the trees whose attribute
  /// sets intersect the update, keeping the partition otherwise. Returns
  /// the indices-agnostic set of rebuilt attr sets (the set T). `delta`
  /// is the change that produced the current pairs_.
  std::vector<std::vector<AttrId>> direct_apply(const PairSetDelta& delta, double now);

  /// The Sec. 4.1 restricted local search over the base topology.
  void optimize(const PairSet& pairs, std::vector<std::vector<AttrId>> rebuilt,
                double now, AdaptReport& report);

  double last_adjusted(const std::vector<AttrId>& attrs, double now) const;
  void stamp(const std::vector<AttrId>& attrs, double now);

  const SystemModel* system_;
  Planner planner_;
  AdaptScheme scheme_;
  Topology topology_;
  PairSet pairs_;
  /// Last-adjusted time per tree, keyed by the tree's attribute set
  /// (T_adj,i in the throttle formula).
  std::map<std::vector<AttrId>, double> adjusted_at_;
  double init_time_ = 0.0;
  DeltaMetrics metrics_;
};

}  // namespace remo
