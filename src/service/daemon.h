// MonitoringDaemon — service mode for the REMO stack (DESIGN.md §14): a
// long-running monitoring process that owns a FederatedMonitoringSystem
// (K = 1 by default, i.e. exactly the classic single-core system) behind
// an async ingest path.
//
//   producers ──push──▶ MessageBus ──drain──▶ run loop ──▶ wire records
//   (values, churn,      (admission:           (1 epoch =     + time series
//    control)             rate limits,          drain, apply,  + snapshots
//                         backpressure)         replan, emit)
//
// The run loop is epoch-driven on a VIRTUAL clock: epoch e ends at time
// e·epoch_duration, and that value — never the wall clock — feeds the
// planner and the latency histogram. Consequences:
//   - a test or bench driving run_epoch() in a tight loop observes the
//     exact same plans, replan epochs, and latency samples as a deployed
//     daemon pacing itself with run_wall_clock();
//   - daemon mode is bit-identical to batch mode: applying the same
//     command sequence directly to a FederatedMonitoringSystem with the
//     same clock values yields byte-equal collected-pair streams
//     (property-tested over 20 seeds in tests/service/);
//   - a daemon restored from snapshot() continues bit-identically: the
//     image carries the system (tasks, routes, forest, throttle state),
//     the bus (in-flight commands, token buckets), the latest values,
//     and the virtual clock.
//
// Task churn drains through the federation facade into the owning shard
// core's pending delta, which that core replans once, at the epoch's
// first read after the drain (DESIGN.md §13); node outages surface
// through the facade's detect → repair → replan loop when recovery is
// enabled in the shard options.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "federation/federated_system.h"
#include "obs/metrics.h"
#include "service/message_bus.h"
#include "service/wire.h"

namespace remo::service {

struct DaemonOptions {
  /// Shard layout + per-shard core options (K = 1 default).
  federation::FederationOptions federation;
  BusOptions bus;
  /// Cap on attribute values applied per epoch; excess commands stay
  /// queued for later epochs (deferral — distinct from shedding, which
  /// happens at admission). 0 = unlimited.
  std::size_t max_values_per_epoch = 0;
  /// Virtual seconds per epoch — the unit of the planner clock and the
  /// ingest-to-collected latency histogram.
  double epoch_duration = 1.0;
  /// Registry for `service.*` metrics. Null = the process-global one.
  obs::Registry* metrics = nullptr;
  /// Wire sink: called once at startup with the stream header and once
  /// per epoch with a framed kEpochPairs record (wire.h). Null = no
  /// stream output (in-memory accessors still work).
  std::function<void(const std::uint8_t* data, std::size_t size)> sink;
};

/// Always-on functional counters (the obs `service.*` metrics mirror
/// these; DaemonStats is the source of truth).
struct DaemonStats {
  std::uint64_t epochs = 0;
  std::uint64_t commands_applied = 0;
  std::uint64_t values_applied = 0;
  /// Values dropped at apply time for referencing the collector or a node
  /// outside the universe (admission cannot know the universe).
  std::uint64_t values_invalid = 0;
  /// Applied values whose (node, attr) pair the topology collected in the
  /// same epoch — the numerator of the delivery SLO.
  std::uint64_t values_collected = 0;
  /// Σ over epochs of values still queued at the epoch boundary — the
  /// deferral debt in value·epochs (0 while ingest keeps up).
  std::uint64_t value_epochs_deferred = 0;
  std::uint64_t tasks_added = 0;
  std::uint64_t tasks_removed = 0;
  std::uint64_t tasks_modified = 0;
  std::uint64_t replans_forced = 0;
  std::uint64_t snapshots_taken = 0;
  /// Σ over epochs of collected pairs emitted.
  std::uint64_t pairs_emitted = 0;
};

// Thread model (DESIGN.md §16): producers on any thread call the
// submit_* edge, which only touches `bus_` — MessageBus is the daemon's
// single cross-thread capability (one annotated remo::Mutex guards the
// queue, admission buckets, and stats; see service/message_bus.h). The
// run loop is a single consumer: everything below the bus (the federated
// system, stats_, collected_) is consumer-thread-only state, so it is
// deliberately unguarded and unannotated — adding a mutex there would
// claim a sharing that must never exist.
class MonitoringDaemon {
 public:
  MonitoringDaemon(SystemModel global, DaemonOptions options = {});

  // The federation facade and the metric handles are address-pinned.
  MonitoringDaemon(const MonitoringDaemon&) = delete;
  MonitoringDaemon& operator=(const MonitoringDaemon&) = delete;

  // ---- producer edge (safe from any thread) -----------------------------
  MessageBus& bus() noexcept { return bus_; }
  Admission submit_values(std::uint32_t producer,
                          std::vector<ValueUpdate> values);
  /// Task ids are assigned at apply time, in drain (FIFO) order — with a
  /// single producer they are deterministic: 1, 2, 3, ...
  Admission submit_add_task(MonitoringTask task);
  Admission submit_remove_task(TaskId id);
  Admission submit_modify_task(MonitoringTask task);
  Admission submit_control(ControlKind control);

  // ---- run loop (single consumer) ---------------------------------------
  /// One deterministic tick: drain (bounded by max_values_per_epoch),
  /// apply in FIFO order, run the recovery epoch step, replan lazily, and
  /// emit the epoch's collected pairs.
  void run_epoch();
  void run(std::size_t epochs);
  /// Wall-clock pacing for deployments: runs `epochs` ticks,
  /// sleeping `period_seconds` after each. Plans are identical to the
  /// same number of run_epoch() calls — wall time never reaches them.
  void run_wall_clock(double period_seconds, std::size_t epochs);

  std::uint64_t epoch() const noexcept { return epoch_; }
  /// The virtual clock: end time of the last completed epoch.
  double now() const noexcept {
    return static_cast<double>(epoch_) * options_.epoch_duration;
  }

  // ---- read side ---------------------------------------------------------
  federation::FederatedMonitoringSystem& system() noexcept { return system_; }
  const DaemonStats& stats() const noexcept { return stats_; }
  /// The last emitted epoch's collected pairs (sorted by (node, attr)).
  const std::vector<NodeAttrPair>& last_collected() const noexcept {
    return collected_;
  }
  const federation::FederatedMonitoringSystem::Status& last_status()
      const noexcept {
    return last_status_;
  }
  /// Freshest ingested value for a pair (0.0 if never seen).
  double value_of(NodeAttrPair pair) const;

  // ---- snapshot/restore --------------------------------------------------
  /// Full daemon image: stream header + one kSnapshot record carrying the
  /// system (snapshot.h), the bus, the latest values, the counters, and
  /// the virtual clock.
  std::vector<std::uint8_t> snapshot();
  /// Restores from a snapshot() image into this daemon, which must have
  /// been constructed with the same SystemModel and options. Aborts on a
  /// malformed or mismatched image (snapshots are trusted local state).
  void restore(const std::vector<std::uint8_t>& image);
  /// Image captured by the last kSnapshot control command (empty if none).
  const std::vector<std::uint8_t>& last_snapshot() const noexcept {
    return last_snapshot_;
  }

  // ---- resource_monitor-style exporters ---------------------------------
  /// One JSON object summarizing the run so far (status roll-up, daemon
  /// counters, bus admission stats).
  std::string summary_json() const;
  /// The retained per-epoch time series (wire::series_header + lines): the
  /// last 1024 epochs, oldest dropped first.
  std::string time_series_text() const;
  const std::deque<wire::SeriesSample>& series() const noexcept {
    return series_;
  }

 private:
  struct ServiceMetrics {
    obs::Counter* epochs = nullptr;
    obs::Counter* commands_applied = nullptr;
    obs::Counter* values_applied = nullptr;
    obs::Counter* pairs_emitted = nullptr;
    obs::Gauge* values_shed = nullptr;  ///< mirror of the BusStats total
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* queued_values = nullptr;
    obs::Gauge* coverage = nullptr;
    obs::Histogram* ingest_to_collected = nullptr;  ///< virtual seconds
  };

  /// One entry of a node's value row.
  struct AttrValue {
    AttrId attr = 0;
    double value = 0.0;
  };
  using ValueRow = std::vector<AttrValue>;

  void apply(Command& cmd, std::uint64_t& values_this_epoch);
  void emit_epoch(double now_end, std::uint64_t values_this_epoch);
  void emit_stream(const std::uint8_t* data, std::size_t size);
  /// Sets (node, attr)'s value, keeping an existing entry when `overwrite`
  /// is false.
  void store_value(NodeAttrPair pair, double value, bool overwrite);
  /// Whether the current plan collects `pair` (searches the node's range
  /// of collected_).
  bool collected(NodeAttrPair pair) const;

  DaemonOptions options_;
  federation::FederatedMonitoringSystem system_;
  MessageBus bus_;
  ServiceMetrics metrics_;

  std::uint64_t epoch_ = 0;
  DaemonStats stats_;
  /// Freshest value per pair: one attr-sorted row per node id, so walking
  /// the rows in id order visits pairs in (node, attr) order.
  std::vector<ValueRow> latest_values_;
  /// (pair, enqueue stamp) of values applied this epoch, awaiting the
  /// collected set to resolve their latency.
  std::vector<std::pair<NodeAttrPair, double>> pending_latency_;
  std::vector<NodeAttrPair> collected_;
  /// Node n's pairs are collected_[collected_begin_[n], collected_begin_[n + 1]).
  std::vector<std::size_t> collected_begin_;
  std::uint64_t collected_generation_ = 0;
  bool collected_valid_ = false;
  federation::FederatedMonitoringSystem::Status last_status_;
  std::deque<wire::SeriesSample> series_;
  std::vector<Command> scratch_commands_;
  std::vector<std::uint8_t> last_snapshot_;
  bool snapshot_requested_ = false;
  bool header_written_ = false;
};

}  // namespace remo::service
