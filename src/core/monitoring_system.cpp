#include "core/monitoring_system.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "planner/export.h"

namespace remo {

namespace {

/// `recovery.*` metrics for the detect → repair → replan loop. Constructed
/// only on the (rare) epochs where the loop acts, so quiet epochs pay
/// nothing; null members = publishing off (obs disabled).
struct RecoveryMetrics {
  obs::Counter* outages_detected = nullptr;
  obs::Counter* recoveries_detected = nullptr;
  obs::Counter* repair_passes = nullptr;
  obs::Counter* repair_messages = nullptr;
  obs::Counter* replans_after_outage = nullptr;
  obs::Histogram* repair_seconds = nullptr;
  obs::Histogram* replan_seconds = nullptr;

  explicit RecoveryMetrics(obs::Registry* registry) {
    if (!obs::enabled()) return;
    obs::Registry& reg = obs::registry_or_global(registry);
    outages_detected = &reg.counter("recovery.outages_detected");
    recoveries_detected = &reg.counter("recovery.recoveries_detected");
    repair_passes = &reg.counter("recovery.repair_passes");
    repair_messages = &reg.counter("recovery.repair_messages");
    replans_after_outage = &reg.counter("recovery.replans_after_outage");
    repair_seconds =
        &reg.histogram("recovery.repair_seconds", obs::Histogram::time_bounds());
    replan_seconds =
        &reg.histogram("recovery.replan_seconds", obs::Histogram::time_bounds());
  }
};

/// Fraction of the collector's capacity withheld from the planner and
/// reserved for repair: parked probe links and re-homed orphans attach into
/// this slack. Without the reserve the optimizer packs the collector tight
/// and a post-outage replan cannot re-park the suspects — their pairs would
/// be dropped until the outage ends.
constexpr double kRepairHeadroom = 0.1;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

MonitoringSystem::MonitoringSystem(SystemModel system,
                                   MonitoringSystemOptions options)
    : system_(std::move(system)),
      options_(std::move(options)),
      planning_system_(system_),
      manager_(&system_),
      liveness_(options_.recovery.liveness) {}

SystemModel& MonitoringSystem::refresh_planning_system() {
  planning_system_ = system_;
  if (options_.recovery.enabled) {
    planning_system_.set_collector_capacity(system_.capacity(kCollectorId) *
                                            (1.0 - kRepairHeadroom));
  }
  return planning_system_;
}

TaskId MonitoringSystem::add_task(MonitoringTask task) {
  task.id = next_id_++;
  const TaskId id = task.id;
  if (delta_eligible(task)) {
    // Fast path: the rewriter would pass this task through unchanged, so
    // feed it straight to the live manager and remember the exact pair
    // delta. ensure_planned re-checks the spec table before trusting it.
    internal_id_of_[id] = manager_.add_task(task, &pending_delta_);
    delta_dirty_ = true;
  } else {
    dirty_ = true;
  }
  user_tasks_.emplace(id, std::move(task));
  ++public_tasks_;
  return id;
}

bool MonitoringSystem::remove_task(TaskId id) {
  auto it = user_tasks_.find(id);
  if (it == user_tasks_.end()) return false;
  auto internal = internal_id_of_.find(id);
  if (planner_.has_value() && !dirty_ && internal != internal_id_of_.end()) {
    const bool removed = manager_.remove_task(internal->second, &pending_delta_);
    REMO_ASSERT(removed, "internal manager lost task ", internal->second,
                " mapped from user task ", id);
    delta_dirty_ = true;
  } else {
    dirty_ = true;
  }
  internal_id_of_.erase(id);
  user_tasks_.erase(it);
  --public_tasks_;
  return true;
}

bool MonitoringSystem::modify_task(MonitoringTask task) {
  auto it = user_tasks_.find(task.id);
  if (it == user_tasks_.end()) return false;
  auto internal = internal_id_of_.find(task.id);
  // Both the old and the new definition must be rewrite identities: the
  // mapping only exists for pass-through tasks, and the replacement must
  // stay one.
  if (delta_eligible(task) && internal != internal_id_of_.end()) {
    MonitoringTask local = task;
    local.id = internal->second;
    const bool modified = manager_.modify_task(std::move(local), &pending_delta_);
    REMO_ASSERT(modified, "internal manager lost task ", internal->second,
                " mapped from user task ", task.id);
    delta_dirty_ = true;
  } else {
    dirty_ = true;
  }
  it->second = std::move(task);
  return true;
}

PlannerOptions MonitoringSystem::rebuild_internal_tasks() {
  // Rewrite the user tasks (reliability expansion) into the internal
  // manager and derive the planner's per-attribute specs.
  std::vector<MonitoringTask> raw;
  raw.reserve(user_tasks_.size());
  for (const auto& [id, t] : user_tasks_) raw.push_back(t);

  ReliabilityRewriter rewriter(options_.first_alias_id);
  auto rewritten = rewriter.rewrite(raw);
  ReliabilityRewriter::register_aliases(system_, rewritten.alias_of);

  manager_ = TaskManager(&system_);
  // A federated core owns only its shard's node subset: arm the task
  // manager's scope check so a misrouted subtask aborts under
  // REMO_VALIDATE instead of silently dropping pairs. The standalone
  // system keeps the historic universe-wide tolerance.
  if (options_.shard.scoped()) manager_.set_owned_vertices(system_.num_vertices());
  internal_id_of_.clear();
  for (auto& t : rewritten.tasks) {
    const TaskId user_id = t.id;
    const TaskId internal_id = manager_.add_task(std::move(t));
    // Map pass-through tasks for the delta fast path. A replica subtask
    // can carry its original's id, but that original is SSDP/DSDP and the
    // reliability check excludes it.
    auto user = user_tasks_.find(user_id);
    if (user != user_tasks_.end() &&
        user->second.reliability == ReliabilityMode::kNone)
      internal_id_of_[user_id] = internal_id;
  }

  PlannerOptions planner_options = options_.planner;
  planner_options.conflicts = rewritten.conflicts;
  planner_options.attr_specs = derive_attr_specs(
      manager_, options_.aggregation_aware, options_.frequency_aware);
  return planner_options;
}

std::string MonitoringSystem::constraint_signature_of(
    const PlannerOptions& planner_options) const {
  std::size_t funnels = 0, weights = 0;
  for (AttrId a : manager_.dedup(system_.num_vertices()).attribute_universe()) {
    if (planner_options.attr_specs.funnel(a).type() != AggType::kHolistic)
      ++funnels;
    if (planner_options.attr_specs.weight(a) < 1.0) ++weights;
  }
  return std::to_string(planner_options.conflicts.size()) + ":" +
         std::to_string(funnels) + ":" + std::to_string(weights);
}

void MonitoringSystem::ensure_planned(double now) {
  if (!dirty_ && !delta_dirty_ && planner_.has_value()) return;
  ++generation_;

  if (!dirty_ && planner_.has_value()) {
    // Delta fast path: the manager already holds the mutated tasks and
    // pending_delta_ is their exact dedup-pair delta. Re-derive the spec
    // table from the live manager (conflicts are stable — only SSDP/DSDP
    // rewriting creates them, and those tasks force the slow path); when
    // it equals the live planner's, the planner's options are still valid
    // and the delta replan is bit-identical to the full-diff apply_update.
    if (derive_attr_specs(manager_, options_.aggregation_aware,
                          options_.frequency_aware) ==
        planner_->options().attr_specs) {
      TaskDelta pending = std::move(pending_delta_);
      pending_delta_ = TaskDelta{};
      delta_dirty_ = false;
      // The planner's pair set leaves out the suspects the last
      // plan_from_scratch planned around; their pairs rejoin it at the
      // replan after they recover, so churn on them stays out of it until
      // then.
      if (!planned_around_.empty()) {
        auto around = [this](const NodeAttrPair& p) {
          return std::binary_search(planned_around_.begin(),
                                    planned_around_.end(), p.node);
        };
        std::erase_if(pending.pairs.added, around);
        std::erase_if(pending.pairs.removed, around);
      }
      const auto report = planner_->apply_delta(pending, now);
      ++delta_applies_;
      if (report.adaptation_messages > 0) {
        ++adaptations_;
        adaptation_messages_ += report.adaptation_messages;
      }
      REMO_VALIDATE(
          planner_->pairs() ==
              without_planned_around(manager_.dedup(system_.num_vertices())),
          "delta fast path drifted from the manager's dedup set (",
          planner_->pairs().total_pairs(), " vs ", manager_.live_pair_count(),
          " live pairs, ", planned_around_.size(), " suspects planned around)");
      return;
    }
    // Churn changed an attribute's funnel or weight: the planner's options
    // are stale, so fall through to the full rebuild.
    dirty_ = true;
  }

  pending_delta_ = TaskDelta{};
  delta_dirty_ = false;
  PlannerOptions planner_options = rebuild_internal_tasks();
  const PairSet pairs = manager_.dedup(system_.num_vertices());

  // First plan, or the specs or conflicts changed: the adaptive planner
  // has no API for evolving them, so it is rebuilt.
  if (!planner_.has_value() ||
      planner_options.attr_specs != planner_->options().attr_specs ||
      planner_options.conflicts != planner_->options().conflicts) {
    const Topology previous =
        planner_.has_value() ? planner_->topology() : Topology{};
    planner_.emplace(refresh_planning_system(), std::move(planner_options),
                     options_.adaptation);
    plan_from_scratch(pairs, now);
    if (!previous.entries().empty()) {
      const std::size_t moved = edge_diff(previous, planner_->topology());
      if (moved > 0) {
        ++adaptations_;
        adaptation_messages_ += moved;
      }
    }
  } else {
    // The suspects planned around stay out, as on the delta path.
    const auto report = planner_->apply_update(without_planned_around(pairs), now);
    if (report.adaptation_messages > 0) {
      ++adaptations_;
      adaptation_messages_ += report.adaptation_messages;
    }
  }
  dirty_ = false;
}

const Topology& MonitoringSystem::topology(double now) {
  ensure_planned(now);
  return planner_->topology();
}

void MonitoringSystem::replan(double now) {
  dirty_ = true;
  planner_.reset();
  ensure_planned(now);
}

std::vector<NodeAttrPair> MonitoringSystem::collected_pairs(double now) {
  ensure_planned(now);
  return collected_pairs_of(planner_->topology());
}

MonitoringSystem::Status MonitoringSystem::status(double now) {
  ensure_planned(now);
  // Coverage/cost roll-ups walk every tree entry; memoize them on the
  // generation counter so the per-epoch status poll a long-running daemon
  // issues costs O(1) while the plan is unchanged.
  if (status_cache_.has_value() && status_generation_ == generation_)
    return *status_cache_;
  const Topology& topo = planner_->topology();
  Status s;
  s.tasks = public_tasks_;
  s.pairs = topo.total_pairs();
  s.collected = topo.collected_pairs();
  s.coverage = topo.coverage();
  s.trees = topo.num_trees();
  s.message_volume = topo.total_cost();
  s.adaptations = adaptations_;
  s.adaptation_messages = adaptation_messages_;
  s.delta_applies = delta_applies_;
  s.repair = repair_report_;
  status_cache_ = s;
  status_generation_ = generation_;
  return s;
}

void MonitoringSystem::on_delivery(NodeAttrPair pair, std::uint64_t epoch) {
  if (!options_.recovery.enabled) return;
  liveness_.on_delivery(pair, epoch);
}

bool MonitoringSystem::end_epoch(std::uint64_t epoch) {
  if (!options_.recovery.enabled) return false;
  const double now = static_cast<double>(epoch);
  ensure_planned(now);
  // Re-sync expectations when task churn, adaptation, repair or a restore
  // may have moved the plan (each bumps generation_), or a down state
  // flipped since the last sync (a recovered suspect outside the
  // deployment must be forgotten). Otherwise the sync is the identity:
  // the same members, intervals and depths, and every suspect already
  // kept.
  if (generation_ != liveness_generation_ || liveness_.flipped_since_sync()) {
    liveness_.sync(planner_->topology(), epoch);
    liveness_generation_ = generation_;
  }
  const auto events = liveness_.end_epoch(epoch);

  bool acted = !events.empty();
  bool any_down = false;
  std::size_t downs = 0, ups = 0;
  for (const auto& ev : events) {
    if (ev.down) {
      any_down = true;
      ++downs;
      ++repair_report_.outages_detected;
      repair_report_.detect_lag_sum += ev.lag;
    } else {
      ++ups;
      ++repair_report_.recoveries_detected;
    }
    last_event_epoch_ = epoch;
    reoptimize_pending_ = true;
    if (options_.recovery.on_detect) options_.recovery.on_detect(ev);
  }
  if (!events.empty()) {
    const RecoveryMetrics metrics(options_.metrics);
    if (metrics.outages_detected != nullptr) {
      metrics.outages_detected->add(downs);
      metrics.recoveries_detected->add(ups);
    }
  }

  bool changed = false;
  if (any_down) {
    const obs::Span repair_span("recovery.repair");
    const auto repair_start = std::chrono::steady_clock::now();
    auto res =
        repair_topology(planner_->topology(), system_, liveness_.suspected());
    ++repair_report_.repair_passes;
    repair_report_.repair_messages += res.outcome.repair_messages;
    repair_report_.orphans_reattached += res.outcome.orphans_reattached;
    repair_report_.suspects_parked += res.outcome.suspects_parked;
    repair_report_.members_dropped += res.outcome.members_dropped;
    repair_report_.pairs_dropped += res.outcome.pairs_dropped;
    for (const auto& ev : events)
      if (ev.down) repair_report_.repair_lag_sum += ev.lag;
    if (options_.recovery.on_repair)
      options_.recovery.on_repair(res.outcome, epoch);
    if (res.outcome.repair_messages > 0) {
      planner_->adopt(std::move(res.topo), now);
      REMO_VALIDATE(planner_->topology().validate(system_),
                    "adopted repair topology violates capacity at epoch ", epoch);
      liveness_.sync(planner_->topology(), epoch);
      // The redeploy drops in-flight relays: grant every up node a fresh
      // deadline window so deep members aren't falsely suspected.
      liveness_.restart_deadlines(epoch);
      changed = true;
    }
    const RecoveryMetrics metrics(options_.metrics);
    if (metrics.repair_passes != nullptr) {
      metrics.repair_passes->add(1);
      metrics.repair_messages->add(res.outcome.repair_messages);
      metrics.repair_seconds->observe(seconds_since(repair_start));
    }
  } else if (reoptimize_pending_ &&
             epoch >= last_event_epoch_ + options_.recovery.stabilize_epochs) {
    reoptimize_pending_ = false;
    changed = reoptimize_after_outage(epoch);
    acted = true;  // the replan mutates repair_report_ even when no link moved
  }
  if (acted || changed) ++generation_;
  return changed;
}

bool MonitoringSystem::reoptimize_after_outage(std::uint64_t epoch) {
  const obs::Span span("recovery.replan");
  const auto start = std::chrono::steady_clock::now();
  const double now = static_cast<double>(epoch);
  const Topology before = planner_->topology();
  refresh_planning_system();
  plan_from_scratch(manager_.dedup(system_.num_vertices()), now);
  ++repair_report_.replans_after_outage;
  REMO_VALIDATE(planner_->topology().validate(system_),
                "post-outage replan topology violates capacity at epoch ", epoch,
                " (", planned_around_.size(), " suspects planned around)");
  const std::size_t moved = edge_diff(before, planner_->topology());
  repair_report_.repair_messages += moved;
  liveness_.sync(planner_->topology(), epoch);
  if (moved > 0) liveness_.restart_deadlines(epoch);
  const RecoveryMetrics metrics(options_.metrics);
  if (metrics.replans_after_outage != nullptr) {
    metrics.replans_after_outage->add(1);
    metrics.repair_messages->add(moved);
    metrics.replan_seconds->observe(seconds_since(start));
  }
  return moved > 0;
}

void MonitoringSystem::plan_from_scratch(const PairSet& pairs, double now) {
  // Plan *around* the outage: suspects are removed from the planned pair
  // set so the optimizer cannot draft a dead node as a relay (planning it
  // in and then surgically breaking the plan would re-orphan whole
  // subtrees and drop their pairs all over again). Their pairs are parked
  // back afterwards as probe leaves against the full system model — the
  // headroom the planner left behind is exactly that budget.
  planned_around_ = liveness_.suspected();
  planner_->initialize(without_planned_around(pairs), now);
  if (planned_around_.empty()) return;
  Topology patched = planner_->topology();
  const RepairOutcome parked = park_members(patched, system_, planned_around_, pairs);
  patched.set_total_pairs(pairs.total_pairs());
  repair_report_.suspects_parked += parked.suspects_parked;
  repair_report_.members_dropped += parked.members_dropped;
  repair_report_.pairs_dropped += parked.pairs_dropped;
  planner_->adopt(std::move(patched), now);
}

PairSet MonitoringSystem::without_planned_around(PairSet pairs) const {
  for (NodeId s : planned_around_) {
    if (s >= pairs.num_vertices()) continue;
    const std::vector<AttrId> attrs = pairs.attrs_of(s);
    for (AttrId a : attrs) pairs.remove(s, a);
  }
  return pairs;
}

MonitoringSystem::PlannerState MonitoringSystem::planner_state(double now) {
  ensure_planned(now);
  PlannerState state;
  state.topology = planner_->topology();
  state.adjustment_stamps = planner_->adjustment_stamps();
  state.init_time = planner_->init_time();
  state.constraint_signature = constraint_signature_of(planner_->options());
  return state;
}

void MonitoringSystem::restore_tasks(std::map<TaskId, MonitoringTask> tasks,
                                     TaskId next_id) {
  user_tasks_ = std::move(tasks);
  public_tasks_ = user_tasks_.size();
  if (!user_tasks_.empty()) {
    REMO_ASSERT(next_id > user_tasks_.rbegin()->first,
                "restored next task id ", next_id, " collides with live task ",
                user_tasks_.rbegin()->first);
  }
  next_id_ = next_id;
  internal_id_of_.clear();
  planner_.reset();
  pending_delta_ = TaskDelta{};
  delta_dirty_ = false;
  dirty_ = true;
  ++generation_;
}

void MonitoringSystem::restore_planner(PlannerState state) {
  PlannerOptions rebuilt = rebuild_internal_tasks();
  const std::string signature = constraint_signature_of(rebuilt);
  REMO_ASSERT(signature == state.constraint_signature,
              "restored constraint signature drifted: rebuilt '", signature,
              "' vs captured '", state.constraint_signature,
              "' — the snapshot's task set does not produce its plan");
  PairSet pairs = manager_.dedup(system_.num_vertices());
  planner_.emplace(refresh_planning_system(), std::move(rebuilt),
                   options_.adaptation);
  planner_->restore(std::move(pairs), std::move(state.topology),
                    std::move(state.adjustment_stamps), state.init_time);
  planned_around_.clear();
  pending_delta_ = TaskDelta{};
  delta_dirty_ = false;
  dirty_ = false;
  ++generation_;
}

void MonitoringSystem::restore_counters(const AdaptationCounters& counters,
                                        RepairReport repair) {
  adaptations_ = counters.adaptations;
  adaptation_messages_ = counters.adaptation_messages;
  delta_applies_ = counters.delta_applies;
  repair_report_ = repair;
  ++generation_;
}

std::string MonitoringSystem::export_dot(double now) {
  ensure_planned(now);
  return to_dot(planner_->topology());
}

std::string MonitoringSystem::export_json(double now) {
  ensure_planned(now);
  return to_json(planner_->topology());
}

}  // namespace remo
