// The top-level facade matching the paper's system model (Fig. 1): the
// task manager ingests monitoring tasks, the management core (monitoring
// planner) maintains the overlay, and users read the resulting topology
// and status. This is the one-stop API a downstream application embeds;
// the lower layers (Planner, AdaptivePlanner, TaskManager, simulate())
// remain available for fine-grained control.
//
// Task mutations are buffered; the topology is (re)planned lazily on the
// next read, through the adaptive planner, so a burst of task changes
// costs one adaptation. Time is whatever unit the caller advances
// (epochs); it feeds the cost-benefit throttle.
//
// Churn fast path (DESIGN.md §13): mutations that cannot change the
// rewritten task shape (reliability = kNone) are applied to the live
// internal manager immediately and accumulated as an exact TaskDelta; the
// next read re-derives only the attribute spec table and, when it equals
// the live planner's, replans through AdaptivePlanner::apply_delta —
// O(|delta|) bookkeeping instead of rebuilding the manager and diffing
// full pair sets, bit-identical to the historic path by construction. A
// funnel or weight change (or any SSDP/DSDP mutation) falls back to the
// full rebuild.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "adapt/adaptive_planner.h"
#include "adapt/repair.h"
#include "collector/liveness.h"
#include "extensions/attr_spec_derivation.h"
#include "extensions/reliability.h"
#include "task/task_manager.h"

namespace remo {

/// The closed robustness loop (detect → repair → replan, see DESIGN.md):
/// the facade infers node outages from collector delivery gaps, patches
/// the overlay around suspected nodes immediately, and hands the degraded
/// topology back to the adaptive planner once the outage stabilizes.
struct FailureRecoveryOptions {
  bool enabled = false;
  LivenessConfig liveness;
  /// Quiet epochs (no detect/recover events) before the degraded topology
  /// is re-optimized by a full replan.
  std::uint64_t stabilize_epochs = 8;
  /// Observability hooks (drive bench_failure_recovery): every liveness
  /// edge, and every repair pass with the epoch it ran in.
  std::function<void(const LivenessEvent&)> on_detect;
  std::function<void(const RepairOutcome&, std::uint64_t epoch)> on_repair;
};

/// Lifetime counters of the failure-recovery loop, surfaced next to the
/// adaptation counters in MonitoringSystem::Status.
struct RepairReport {
  std::size_t outages_detected = 0;
  std::size_t recoveries_detected = 0;
  std::size_t repair_passes = 0;
  /// Links rewired by repair passes and post-outage replans combined —
  /// the control-message cost of self-healing.
  std::size_t repair_messages = 0;
  std::size_t orphans_reattached = 0;
  std::size_t suspects_parked = 0;
  std::size_t members_dropped = 0;
  /// Pairs lost during outages (no feasible re-attach point).
  std::size_t pairs_dropped = 0;
  std::size_t replans_after_outage = 0;
  /// Epoch sums, one addend per down event: from a node's first missed
  /// delivery deadline to its detection, and to the repair pass that
  /// re-homed its orphans (repair runs in the detection epoch, so the two
  /// coincide today).
  std::uint64_t detect_lag_sum = 0;
  std::uint64_t repair_lag_sum = 0;

  /// Mean epochs from a node's first missed delivery deadline to its
  /// detection.
  double mean_detect_epochs() const {
    return outages_detected == 0 ? 0.0
                                 : static_cast<double>(detect_lag_sum) /
                                       static_cast<double>(outages_detected);
  }
};

/// This core's identity within a sharded federation (src/federation,
/// DESIGN.md §12). The defaults describe the historic standalone system:
/// one shard owning the whole universe. A federated core (count > 1)
/// scopes its task-manager invariants to its own node subset and labels
/// its metrics per shard.
struct ShardIdentity {
  std::uint32_t index = 0;  ///< which shard, in [0, count)
  std::uint32_t count = 1;  ///< total shards in the federation
  bool scoped() const noexcept { return count > 1; }
  std::string label() const { return "shard" + std::to_string(index); }
};

struct MonitoringSystemOptions {
  PlannerOptions planner;
  /// Adaptation scheme used when tasks change after the initial plan.
  AdaptScheme adaptation = AdaptScheme::kAdaptive;
  /// Derive funnels / frequency weights from the task set automatically
  /// (Sec. 6.1 / 6.3). Disable to plan extension-oblivious.
  bool aggregation_aware = true;
  bool frequency_aware = true;
  /// Rewrite SSDP/DSDP tasks into replicas with conflict constraints
  /// (Sec. 6.2). Alias attribute ids are allocated from this value up;
  /// it must sit above every real attribute id.
  AttrId first_alias_id = 1u << 20;
  /// Failure detection + self-healing repair (off by default: the loop
  /// needs the caller to feed deliveries and epoch boundaries).
  FailureRecoveryOptions recovery;
  /// Registry the facade publishes `recovery.*` metrics to (suspicion /
  /// recovery events, repair rounds, replan latency) while obs::enabled().
  /// Null = the process-global registry; RepairReport stays the always-on
  /// functional source. (`planner.metrics` injects the engine's registry
  /// independently.)
  obs::Registry* metrics = nullptr;
  /// Which shard of a federation this core is (defaults: the standalone
  /// singleton). Set by FederatedMonitoringSystem; a scoped core validates
  /// that every task node lies inside its own subset (REMO_VALIDATE).
  ShardIdentity shard;
};

class MonitoringSystem {
 public:
  MonitoringSystem(SystemModel system, MonitoringSystemOptions options = {});

  // The internal planner holds pointers into the owned SystemModel;
  // moving/copying the facade would dangle them.
  MonitoringSystem(const MonitoringSystem&) = delete;
  MonitoringSystem& operator=(const MonitoringSystem&) = delete;

  // ---- task management (Fig. 1: Task manager) -------------------------
  /// Adds a task; returns its id. SSDP/DSDP tasks are rewritten into
  /// replica tasks transparently (their ids map to the original id).
  TaskId add_task(MonitoringTask task);
  bool remove_task(TaskId id);
  bool modify_task(MonitoringTask task);
  std::size_t num_tasks() const noexcept { return public_tasks_; }

  // ---- overlay (Fig. 1: Management core / Monitoring planner) ---------
  /// The current monitoring topology; replans if tasks changed. `now` is
  /// the caller's clock (same unit across calls), driving the throttle.
  const Topology& topology(double now = 0.0);
  /// Force a full from-scratch replan regardless of the adaptation scheme
  /// (around the current suspects, like every plan from scratch).
  void replan(double now = 0.0);

  /// The identities of the pairs the current topology collects, sorted by
  /// (node, attr) — see collected_pairs_of() in planner/topology.h. This
  /// is the per-shard stream the federation root merges; attribute ids
  /// are raw (SSDP/DSDP replicas keep their alias ids).
  std::vector<NodeAttrPair> collected_pairs(double now = 0.0);

  struct Status {
    std::size_t tasks = 0;
    std::size_t pairs = 0;
    std::size_t collected = 0;
    double coverage = 0.0;
    std::size_t trees = 0;
    Capacity message_volume = 0.0;
    std::size_t adaptations = 0;  // apply_update calls that changed links
    std::size_t adaptation_messages = 0;
    /// Replans served by the incremental delta path (subset of the lazy
    /// replans; the full-rebuild fallback does not count here).
    std::size_t delta_applies = 0;
    /// Failure-recovery loop counters (all zero unless recovery.enabled).
    RepairReport repair;
  };
  Status status(double now = 0.0);

  // ---- failure recovery (detect → repair → replan) ---------------------
  /// Feed one collector arrival into the liveness tracker (call from the
  /// delivery path, e.g. SimConfig::on_delivery). `epoch` is the arrival
  /// epoch on the same clock end_epoch() is driven with.
  void on_delivery(NodeAttrPair pair, std::uint64_t epoch);
  /// Run one detect → repair → replan step at an epoch boundary. Returns
  /// true when the topology changed (redeploy it, e.g. via
  /// SimConfig::on_reconfigure). The epoch doubles as the planner clock.
  bool end_epoch(std::uint64_t epoch);
  const RepairReport& repair_report() const noexcept { return repair_report_; }
  const LivenessTracker& liveness() const noexcept { return liveness_; }

  // ---- snapshot/restore + memoization (service/snapshot.h, DESIGN.md §14)
  /// Monotone state-change counter: bumped whenever observable plan state
  /// may have changed (lazy replans, recovery actions, restores). Readers
  /// memoize on it — status() below, and the service daemon's
  /// collected-pairs cache.
  std::uint64_t generation() const noexcept { return generation_; }

  /// The user-visible task set (pre-rewriting) and the id add_task would
  /// hand out next — the task state a snapshot serializes. Everything
  /// downstream (rewritten manager, dedup pair set) re-derives from these.
  const std::map<TaskId, MonitoringTask>& user_tasks() const noexcept {
    return user_tasks_;
  }
  TaskId next_task_id() const noexcept { return next_id_; }

  struct AdaptationCounters {
    std::size_t adaptations = 0;
    std::size_t adaptation_messages = 0;
    std::size_t delta_applies = 0;
  };
  AdaptationCounters adaptation_counters() const noexcept {
    return {adaptations_, adaptation_messages_, delta_applies_};
  }

  /// Plan-affecting state a snapshot must carry beyond the task set: the
  /// deployed forest plus the adaptive planner's throttle bookkeeping. The
  /// pair set is deliberately NOT part of it — restore re-derives it from
  /// the restored tasks (rebuild + dedup), which REMO_VALIDATE pins equal
  /// to the planner's view.
  struct PlannerState {
    Topology topology;
    std::map<std::vector<AttrId>, double> adjustment_stamps;
    double init_time = 0.0;
    std::string constraint_signature;
  };
  /// Captures the current plan state (replanning first if dirty, so the
  /// capture never races a pending lazy replan).
  PlannerState planner_state(double now);
  /// Rebuilds the facade from snapshot parts, in order: the task set,
  /// then the captured plan state (which re-derives pairs from those
  /// tasks), then the lifetime counters. After restore_planner the next
  /// mutation + read continues bit-identically to the captured system.
  void restore_tasks(std::map<TaskId, MonitoringTask> tasks, TaskId next_id);
  void restore_planner(PlannerState state);
  void restore_counters(const AdaptationCounters& counters, RepairReport repair);

  // ---- introspection ----------------------------------------------------
  std::string export_dot(double now = 0.0);
  std::string export_json(double now = 0.0);
  const SystemModel& system() const noexcept { return system_; }
  const TaskManager& tasks() const noexcept { return manager_; }

 private:
  void ensure_planned(double now);
  /// Rewrites the user tasks into a fresh internal manager and returns the
  /// planner options for it: the configured ones plus the rewrite's
  /// conflicts and the derived attribute specs.
  PlannerOptions rebuild_internal_tasks();
  /// "conflicts:funnels:weights", counted over the current manager's
  /// attributes under `planner_options`: the snapshot's consistency field
  /// (a restore must rebuild the same string from the restored tasks).
  std::string constraint_signature_of(const PlannerOptions& planner_options) const;
  /// True when a mutation may ride the incremental delta path: the
  /// planner is live, no full rebuild is already pending, and the task
  /// passes through the reliability rewriter as an identity.
  bool delta_eligible(const MonitoringTask& task) const {
    return planner_.has_value() && !dirty_ &&
           task.reliability == ReliabilityMode::kNone;
  }
  /// The system model the planner optimizes against: identical to the
  /// real one, except the collector keeps a repair headroom in reserve
  /// when the recovery loop is on (repair itself uses the real model).
  SystemModel& refresh_planning_system();
  /// The one way to plan from scratch while suspects may exist (the first
  /// plan, a rebuild after a spec or conflict change, replan(), the
  /// post-outage replan): records the current suspects in
  /// planned_around_, initializes the planner on `pairs` without their
  /// pairs, parks them back as probe leaves and adopts the result — a
  /// still-down node is never drafted as a relay.
  void plan_from_scratch(const PairSet& pairs, double now);
  /// Post-outage re-optimization: plan_from_scratch plus the outage
  /// accounting. Returns true if links changed.
  bool reoptimize_after_outage(std::uint64_t epoch);
  /// `pairs` without the pairs of the planned_around_ nodes.
  PairSet without_planned_around(PairSet pairs) const;

  SystemModel system_;
  MonitoringSystemOptions options_;
  /// Planner's view of the system (stable address: the adaptive planner
  /// keeps a reference to it across replans).
  SystemModel planning_system_;
  /// User-visible tasks (pre-rewriting).
  std::map<TaskId, MonitoringTask> user_tasks_;
  std::size_t public_tasks_ = 0;
  TaskId next_id_ = 1;
  /// Internal manager holding the rewritten tasks.
  TaskManager manager_;
  /// user task id -> internal manager id, for tasks the rewriter passes
  /// through unchanged (reliability = kNone) — the ids the delta fast
  /// path mutates in place. Rebuilt by rebuild_internal_tasks.
  std::map<TaskId, TaskId> internal_id_of_;
  std::optional<AdaptivePlanner> planner_;
  bool dirty_ = true;
  /// Exact pending churn accumulated by the fast path since the last
  /// plan; meaningful only while delta_dirty_ (discarded on full rebuild,
  /// whose fresh manager supersedes it).
  TaskDelta pending_delta_;
  bool delta_dirty_ = false;
  std::size_t adaptations_ = 0;
  std::size_t adaptation_messages_ = 0;
  std::size_t delta_applies_ = 0;
  /// See generation(). Every mutation funnels through ensure_planned (or a
  /// recovery action / restore) before any reader observes it, so bumping
  /// at those choke points keeps the counter honest without instrumenting
  /// each mutator.
  std::uint64_t generation_ = 0;
  /// status() memo: valid while status_generation_ == generation_.
  std::optional<Status> status_cache_;
  std::uint64_t status_generation_ = 0;
  /// Failure-recovery loop state.
  LivenessTracker liveness_;
  /// generation_ at the end_epoch() sync of liveness_ (0: never synced;
  /// a planned system's generation is at least 1).
  std::uint64_t liveness_generation_ = 0;
  /// Suspects the last plan_from_scratch planned around (sorted): the
  /// planner's pair set is the manager's dedup set without their pairs
  /// until the next plan_from_scratch, on the delta and the full update
  /// path alike.
  std::vector<NodeId> planned_around_;
  RepairReport repair_report_;
  std::uint64_t last_event_epoch_ = 0;
  bool reoptimize_pending_ = false;
};

}  // namespace remo
