// Workloads `ingest` and `churn`: the MonitoringDaemon over its K = 1
// FederatedMonitoringSystem, fed StreamApplication values — one value
// batch per node per epoch (about 8 values), then run_epoch(). Failure
// detection is on (recovery.enabled) and a wire sink counts the bytes the
// daemon emits. small_tasks(n / 4) are submitted during set-up.
//
// `ingest` (n = 1024, no task churn). Why: after set-up the planner does
// no work; bus push, drain / apply, the liveness update and emit / wire
// encode carry the load. It is the per-value ingest path in isolation.
//
// `churn` (n = 320, the same value traffic plus 4 task modifications per
// epoch, each replacing a random task with a fresh small task). Why: it
// puts writes beside reads on one daemon, and every epoch
// replans through the facade's AdaptivePlanner::apply_delta path, where
// the memo cache earns its keep. A change that speeds value ingest by
// adding work per plan change shows here and not on `ingest`.
//
// Both are closed loops: the daemon consumes one epoch per run_epoch() on
// its virtual clock, so the step time is its per-epoch service time.
// Traffic generation is the application's cost and stays untimed.
//
// Output check: a batch-mode FederatedMonitoringSystem mirror replays
// every epoch's deliveries and commands at the same virtual clock
// (on_delivery, modify_task, end_epoch, status, collected_pairs); the
// daemon's collected pairs must equal the mirror's at every epoch. In the
// traced run the same mirror calls are spanned: they are the layer
// phases of run_epoch, whose remainder is service self time.
#include <memory>

#include "bench.h"
#include "common/rng.h"
#include "federation/federated_system.h"
#include "obs/metrics.h"
#include "service/daemon.h"
#include "streamapp/stream_app.h"
#include "task/workload.h"

namespace remo::perfbench {
namespace {

constexpr CostModel kCost{10.0, 1.0};

struct DaemonSpec {
  std::size_t nodes = 0;
  std::size_t modifies_per_epoch = 0;
  /// Set-ups per run (setup_s is their median) and warm-up epochs each.
  int setups = 0;
  std::uint64_t warmup_epochs = 0;
};

constexpr DaemonSpec kIngest{1024, 0, 5, 16};
constexpr DaemonSpec kChurn{320, 4, 5, 32};

MonitoringSystemOptions shard_options() {
  MonitoringSystemOptions o;
  o.planner.partition_scheme = PartitionScheme::kRemo;
  o.planner.tree.scheme = TreeScheme::kAdaptive;
  o.planner.allocation = AllocationScheme::kOrdered;
  o.planner.max_candidates = 8;
  o.planner.max_iterations = 32;
  o.planner.num_threads = kEvalThreads;
  o.recovery.enabled = true;
  return o;
}

using Values = std::vector<std::pair<NodeAttrPair, double>>;

/// What the producers submit in one epoch.
struct EpochInput {
  Values values;  ///< sorted by (node, attr)
  std::vector<MonitoringTask> modifies;
};

/// Seeded traffic: the application's values and, for churn, task
/// modifications. A modification replaces a random task with a fresh
/// draw from the set-up's task distribution (same generator settings), so
/// over a run the task mix samples that distribution rather than staying
/// on the seed's first draw, and a run's figures do not depend on how
/// many epochs it reaches.
class Traffic {
 public:
  Traffic(SystemModel& model, std::size_t tasks, std::size_t modifies, std::uint64_t seed)
      : app_(model, app_config(model.num_nodes()), seed),
        churn_(model, WorkloadConfig{.attr_universe = app_.attr_universe()},
               seed ^ 0x5eedc0ffeeULL),
        tasks_(tasks),
        modifies_(modifies) {}

  EpochInput next(std::uint64_t epoch) {
    EpochInput in;
    app_.advance(epoch);
    in.values = app_.current_values();
    for (std::size_t k = 0; k < modifies_; ++k) {
      MonitoringTask task = churn_.small_tasks(1).front();
      // Daemon task ids are 1, 2, ... in submission order.
      task.id = static_cast<TaskId>(1 + churn_.rng().below(tasks_));
      in.modifies.push_back(std::move(task));
    }
    return in;
  }

  std::size_t attr_universe() const { return app_.attr_universe(); }

 private:
  static StreamAppConfig app_config(std::size_t nodes) {
    StreamAppConfig c;
    c.num_operators = nodes;
    return c;
  }

  StreamApplication app_;
  WorkloadGenerator churn_;
  std::size_t tasks_;
  std::size_t modifies_;
};

/// One daemon with its inputs. The model is built first because the
/// application registers its attributes into it.
struct Deployment {
  SystemModel model;
  Traffic traffic;
  Traffic replay;  ///< a copy of `traffic` from epoch 0, for the mirror
  std::vector<MonitoringTask> tasks;
  obs::Registry service_metrics;
  obs::Registry federation_metrics;
  std::uint64_t wire_bytes = 0;
  std::unique_ptr<service::MonitoringDaemon> daemon;

  Deployment(const DaemonSpec& spec, std::uint64_t seed)
      : model(make_model(spec.nodes)),
        traffic(model, spec.nodes / 4, spec.modifies_per_epoch, seed),
        replay(traffic) {
    WorkloadGenerator gen(model, WorkloadConfig{.attr_universe = traffic.attr_universe()},
                          seed ^ 0x7a5c5ULL);
    tasks = gen.small_tasks(spec.nodes / 4);

    service::DaemonOptions opt;
    opt.federation.shard = shard_options();
    opt.federation.metrics = &federation_metrics;
    opt.metrics = &service_metrics;
    opt.sink = [this](const std::uint8_t*, std::size_t size) { wire_bytes += size; };
    daemon = std::make_unique<service::MonitoringDaemon>(model, std::move(opt));
    for (const MonitoringTask& t : tasks) daemon->submit_add_task(t);
  }

  static SystemModel make_model(std::size_t nodes) {
    SystemModel m(nodes, 360.0, kCost);
    m.set_collector_capacity(16.0 * static_cast<double>(nodes));
    return m;
  }
};

/// Batch-mode mirror: the same commands applied straight to a
/// FederatedMonitoringSystem, as the daemon's run loop applies them.
class Mirror {
 public:
  Mirror(const SystemModel& model, const std::vector<MonitoringTask>& tasks)
      : system_(model, options()) {
    for (MonitoringTask t : tasks) {
      t.id = 0;
      system_.add_task(std::move(t));
    }
  }

  /// Replays epoch `epoch`; returns the collected pairs after it.
  const std::vector<NodeAttrPair>& run(std::uint64_t epoch, const EpochInput& in,
                                       Tracer& tracer) {
    const auto now = static_cast<double>(epoch);
    {
      const Tracer::Scope s(tracer, "federation.on_delivery");
      for (const auto& [pair, value] : in.values) system_.on_delivery(pair, epoch);
    }
    if (!in.modifies.empty()) {
      {
        const Tracer::Scope s(tracer, "core.modify_task");
        for (const MonitoringTask& t : in.modifies) system_.modify_task(t);
      }
      const Tracer::Scope s(tracer, "adapt.replan", /*adopt_library=*/true);
      system_.end_epoch(epoch);
      system_.status(now);
    } else {
      {
        const Tracer::Scope s(tracer, "collector.end_epoch", /*adopt_library=*/true);
        system_.end_epoch(epoch);
      }
      const Tracer::Scope s(tracer, "federation.status", /*adopt_library=*/true);
      system_.status(now);
    }
    // The daemon re-reads the collected pairs only when the plan moved.
    if (!valid_ || system_.generation() != generation_) {
      const Tracer::Scope s(tracer, "federation.collected_pairs");
      collected_ = system_.collected_pairs(now);
      generation_ = system_.generation();
      valid_ = true;
    }
    return collected_;
  }

 private:
  static federation::FederationOptions options() {
    federation::FederationOptions o;
    o.shard = shard_options();
    return o;
  }

  federation::FederatedMonitoringSystem system_;
  std::vector<NodeAttrPair> collected_;
  std::uint64_t generation_ = 0;
  bool valid_ = false;
};

struct EpochTiming {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  std::size_t values = 0;
  std::size_t run_epoch_span = 0;  ///< tracer id of the run_epoch span
};

/// One daemon epoch, timed from the first submit to run_epoch's return.
EpochTiming daemon_epoch(service::MonitoringDaemon& daemon, const EpochInput& in,
                         Tracer& tracer, RunResult& result) {
  // Producer-side batching is the application's work: untimed.
  std::vector<std::pair<NodeId, std::vector<service::ValueUpdate>>> batches;
  for (std::size_t i = 0; i < in.values.size();) {
    const NodeId node = in.values[i].first.node;
    auto& batch = batches.emplace_back(node, std::vector<service::ValueUpdate>{}).second;
    for (; i < in.values.size() && in.values[i].first.node == node; ++i)
      batch.push_back({node, in.values[i].first.attr, in.values[i].second});
  }

  EpochTiming out;
  out.values = in.values.size();
  std::size_t refused = 0;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  {
    const Tracer::Scope step(tracer, "step.epoch");
    {
      const Tracer::Scope s(tracer, "service.submit_values");
      for (auto& [node, batch] : batches)
        refused += !service::admitted(daemon.submit_values(node, std::move(batch)));
    }
    if (!in.modifies.empty()) {
      const Tracer::Scope s(tracer, "service.submit_modify_task");
      for (const MonitoringTask& t : in.modifies)
        refused += !service::admitted(daemon.submit_modify_task(t));
    }
    const Tracer::Scope s(tracer, "service.run_epoch");
    out.run_epoch_span = s.id();
    daemon.run_epoch();
  }
  out.seconds = seconds_between(t0, Clock::now());
  out.cpu_seconds = process_cpu_seconds() - cpu0;
  if (refused > 0) result.fail(std::to_string(refused) + " submits refused at admission");
  return out;
}

/// Shard-0 planner counters of the daemon, republished by its facade.
struct PlannerCounters {
  double evaluations = 0.0, hits = 0.0, misses = 0.0, evaluate_seconds = 0.0,
         build_seconds = 0.0, replans = 0.0;

  static PlannerCounters read(Deployment& d) {
    d.daemon->system().publish_metrics();
    const obs::RegistrySnapshot snap = d.federation_metrics.snapshot();
    auto counter = [&snap](const char* name) {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    auto gauge = [&snap](const char* name) {
      const auto it = snap.gauges.find(name);
      return it == snap.gauges.end() ? 0.0 : it->second;
    };
    PlannerCounters c;
    c.evaluations = counter("planner.shard0.candidates_evaluated");
    c.hits = counter("planner.shard0.cache_hits");
    c.misses = counter("planner.shard0.cache_misses");
    c.evaluate_seconds = gauge("planner.shard0.evaluate_seconds");
    c.build_seconds = gauge("planner.shard0.build_seconds");
    c.replans = counter("planner.shard0.delta.replans");
    return c;
  }
};

RunResult run_daemon(const DaemonSpec& spec, const RunConfig& cfg, Tracer& tracer) {
  RunResult result;
  Tracer off(false);

  // Set-up: inputs, daemon construction, task submission, the initial
  // plan (first epoch) and a discarded warm-up. setup_s times it on the
  // fixed set-up input, the same for every seed, so every run times the
  // same work; the repeats must also collect identical pairs. The run's
  // own deployment is then set up the same way, untimed.
  auto set_up = [&](std::uint64_t seed, std::vector<std::uint64_t>& digests) {
    auto d = std::make_unique<Deployment>(spec, seed);
    for (std::uint64_t e = 1; e <= spec.warmup_epochs; ++e) {
      daemon_epoch(*d->daemon, d->traffic.next(e), off, result);
      digests.push_back(digest_pairs(d->daemon->last_collected()));
    }
    return d;
  };
  EndToEnd e2e;
  std::vector<std::uint64_t> setup_digests;
  for (int rep = 0; rep < spec.setups; ++rep) {
    std::vector<std::uint64_t> digests;
    const auto t0 = Clock::now();
    const std::unique_ptr<Deployment> probe = set_up(kSetupSeed, digests);
    e2e.setup_seconds.push_back(seconds_between(t0, Clock::now()));
    ++result.attempted;
    if (rep == 0) {
      setup_digests = std::move(digests);
    } else if (digests != setup_digests) {
      ++result.failed;
      result.fail("repeated set-ups collected different pairs");
    }
  }
  std::vector<std::uint64_t> warmup_digests;
  const std::unique_ptr<Deployment> d = set_up(cfg.seed, warmup_digests);
  service::MonitoringDaemon& daemon = *d->daemon;

  std::uint64_t offered = 0, modifies = 0, epochs_checked = 0, mismatches = 0;
  auto check = [&](std::uint64_t digest, const std::vector<NodeAttrPair>& mirrored) {
    ++epochs_checked;
    if (digest != digest_pairs(mirrored)) ++mismatches;
  };
  // The mirror catches up on the warm-up from a copy of the traffic
  // source, then runs in lockstep with the daemon.
  Mirror mirror(d->model, d->tasks);
  for (std::uint64_t e = 1; e <= spec.warmup_epochs; ++e) {
    const EpochInput in = d->replay.next(e);
    offered += in.values.size();
    modifies += in.modifies.size();
    check(warmup_digests[e - 1], mirror.run(e, in, off));
  }

  std::vector<double> untraced_s, traced_s, step_values, cpu_s;
  double coverage = 0.0, cost_per_pair = 0.0, requested = 0.0, collected = 0.0;
  std::size_t replan_epochs = 0, traced_values = 0;
  PlannerCounters counters0;
  service::DaemonStats traced0;
  std::size_t traced_adapt_msgs0 = 0, traced_bytes0 = 0;

  const auto start = Clock::now();
  auto elapsed = [&start] { return seconds_between(start, Clock::now()); };
  // The traced run spends about a third of its time untraced first; the
  // ratio of the two phases' median epoch is the trace overhead.
  bool tracing = false;
  while (true) {
    const double t = elapsed();
    if (t >= cfg.seconds) break;
    if (cfg.trace && !tracing && t >= cfg.seconds / 3.0) {
      tracing = true;
      counters0 = PlannerCounters::read(*d);
      traced0 = daemon.stats();
      traced_adapt_msgs0 = daemon.last_status().adaptation_messages;
      traced_bytes0 = d->wire_bytes;
    }
    const std::uint64_t e = daemon.epoch() + 1;
    const EpochInput in = d->traffic.next(e);
    offered += in.values.size();
    modifies += in.modifies.size();
    const std::size_t delta_applies0 = daemon.last_status().delta_applies;
    Tracer& tr = tracing ? tracer : off;
    tr.set_step(e);
    tr.set_track(1);
    const EpochTiming timing = daemon_epoch(daemon, in, tr, result);

    // Untimed from here: the mirror replay (the traced run's layer
    // phases) and the check.
    tr.set_track(2);
    tr.set_logical_parent(timing.run_epoch_span);
    check(digest_pairs(daemon.last_collected()), mirror.run(e, in, tr));
    tr.set_logical_parent(0);

    const auto& status = daemon.last_status();
    (tracing ? traced_s : untraced_s).push_back(timing.seconds);
    step_values.push_back(static_cast<double>(timing.values));
    if (!cfg.trace) {
      coverage += status.coverage;
      cost_per_pair += status.collected > 0
                           ? status.message_volume / static_cast<double>(status.collected)
                           : 0.0;
    }
    if (tracing) {
      cpu_s.push_back(timing.cpu_seconds);
      traced_values += timing.values;
      requested += static_cast<double>(status.pairs);
      collected += static_cast<double>(status.collected);
      if (status.delta_applies != delta_applies0) ++replan_epochs;
    }
  }

  // Output checks: every value offered was applied (none shed, refused,
  // invalid or left queued), every modify applied, every epoch equal to
  // the mirror, and no node suspected (no failures are injected).
  const service::DaemonStats& stats = daemon.stats();
  const service::BusStats bus = daemon.bus().stats();
  const std::uint64_t applied = stats.values_applied;
  const std::uint64_t lost = bus.values_shed + stats.values_invalid + daemon.bus().queued_values();
  result.attempted += offered + modifies + d->tasks.size() + epochs_checked;
  // A deferred value counts once per epoch it waited: an upper bound on
  // the values applied late.
  result.failed += lost + stats.value_epochs_deferred +
                   (modifies + d->tasks.size() - stats.tasks_modified - stats.tasks_added) +
                   mismatches;
  if (offered != applied + bus.values_shed + stats.values_invalid)
    result.fail("values offered != applied + shed + invalid");
  if (lost > 0 || stats.value_epochs_deferred > 0)
    result.fail(std::to_string(lost) + " values lost, " +
                std::to_string(stats.value_epochs_deferred) + " value-epochs deferred");
  if (stats.tasks_modified != modifies || stats.tasks_added != d->tasks.size())
    result.fail("task commands not applied");
  if (mismatches > 0)
    result.fail(std::to_string(mismatches) + " of " + std::to_string(epochs_checked) +
                " epochs: daemon collected pairs differ from the batch mirror");
  const std::size_t suspicions = daemon.last_status().repair.outages_detected;
  if (suspicions > 0) result.fail(std::to_string(suspicions) + " nodes suspected down");

  if (!cfg.trace) {
    const auto n = static_cast<double>(untraced_s.size());
    e2e.step_seconds = untraced_s;
    e2e.step_work = step_values;
    e2e.work_unit = "values applied";
    e2e.coverage = coverage / n;
    e2e.cost_per_pair = cost_per_pair / n;
    add_end_to_end(result, e2e);
    return result;
  }

  const PlannerCounters c1 = PlannerCounters::read(*d);
  const auto steps = static_cast<double>(traced_s.size());
  const double evaluations = c1.evaluations - counters0.evaluations;
  const double lookups = (c1.hits - counters0.hits) + (c1.misses - counters0.misses);
  const double replans = c1.replans - counters0.replans;
  LayerReport l;
  l.steps = traced_s.size();
  l.planner_evaluations = evaluations / steps;
  l.planner_iterations = static_cast<double>(count(tracer, "planner.iteration")) / steps;
  l.planner_eval_us =
      evaluations > 0.0 ? (c1.evaluate_seconds - counters0.evaluate_seconds) / evaluations * 1e6
                        : 0.0;
  l.planner_build_full_ms = (c1.build_seconds - counters0.build_seconds) / steps * 1e3;
  l.planner_cache_hit_ratio = lookups > 0.0 ? (c1.hits - counters0.hits) / lookups : 0.0;
  l.planner_parallel_eff =
      mean_of(cpu_s) / (mean_of(traced_s) * static_cast<double>(kEvalThreads));
  l.planner_evaluations_per_replan = replans > 0.0 ? evaluations / replans : 0.0;

  const auto values = static_cast<double>(traced_values);
  const double traced_modifies = static_cast<double>(stats.tasks_modified - traced0.tasks_modified);
  l.service_push_us_per_value = total_seconds(tracer, "service.submit_values") / values * 1e6;
  l.service_run_epoch_ms_p50 = median(durations_ms(tracer, "service.run_epoch"));
  l.service_wire_bytes_per_epoch = static_cast<double>(d->wire_bytes - traced_bytes0) / steps;
  l.service_queue_depth_peak = static_cast<double>(bus.depth_peak);
  const double traced_applied = static_cast<double>(stats.values_applied - traced0.values_applied);
  l.service_collected_value_share =
      traced_applied > 0.0
          ? static_cast<double>(stats.values_collected - traced0.values_collected) / traced_applied
          : 0.0;
  l.federation_deliver_us_per_value = total_seconds(tracer, "federation.on_delivery") / values * 1e6;
  l.collector_end_epoch_ms = median(durations_ms(tracer, "collector.end_epoch"));
  l.collector_suspicions = static_cast<double>(suspicions);
  l.core_modify_us =
      traced_modifies > 0.0 ? total_seconds(tracer, "core.modify_task") / traced_modifies * 1e6 : 0.0;
  l.adapt_replans = replans;
  l.adapt_replan_ms = median(durations_ms(tracer, "adapt.replan"));
  l.adapt_replan_share = total_seconds(tracer, "adapt.replan") / total_seconds(tracer, "service.run_epoch");
  l.adapt_msgs_per_update =
      traced_modifies > 0.0
          ? static_cast<double>(daemon.last_status().adaptation_messages - traced_adapt_msgs0) /
                traced_modifies
          : 0.0;
  l.obs_trace_overhead = median(traced_s) / median(untraced_s) - 1.0;
  l.breakdown = breakdown(tracer, "step.epoch");
  l.requested_pairs = requested / steps;
  l.collected_pairs = collected / steps;
  l.replan_step_share = static_cast<double>(replan_epochs) / steps;
  add_layer_metrics(result, l);
  return result;
}

}  // namespace

RunResult run_ingest(const RunConfig& cfg, Tracer& tracer) {
  return run_daemon(kIngest, cfg, tracer);
}

RunResult run_churn(const RunConfig& cfg, Tracer& tracer) {
  return run_daemon(kChurn, cfg, tracer);
}

}  // namespace remo::perfbench
