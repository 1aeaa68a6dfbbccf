// Epoch-driven store-and-forward simulator of a deployed monitoring
// topology — the BlueGene/P-deployment substitute (see DESIGN.md).
//
// Per epoch, every tree member emits one update message to its parent
// carrying its fresh local values plus the child values buffered in the
// previous epoch, so a value observed at depth d reaches the collector
// after d-1 epochs. Sending and receiving each charge C + a·x against the
// endpoint's per-epoch capacity; when capacity runs out, relayed values
// are trimmed (local values first priority, then oldest child values),
// which surfaces as staleness — and therefore percentage error — at the
// collector.
//
// Holistic collection only: aggregation-aware experiments (Fig. 12a) are
// evaluated on planner metrics, not on the simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "cost/system_model.h"
#include "planner/topology.h"
#include "sim/value_source.h"
#include "task/pair_set.h"

namespace remo {

namespace obs {
class Registry;
}

/// A node outage: `node` is down in epochs [at_epoch, recover_epoch). A
/// down node neither sends nor relays (its relay buffer is lost), and
/// messages sent to it are lost — the failure model behind the Sec. 6.2
/// reliability evaluation.
struct NodeFailure {
  NodeId node = kNoNode;
  std::uint64_t at_epoch = 0;
  std::uint64_t recover_epoch = std::numeric_limits<std::uint64_t>::max();
};

struct SimConfig {
  std::uint64_t epochs = 200;
  /// Error sampling starts after warmup (lets the pipeline fill).
  std::uint64_t warmup = 20;
  /// If false, capacities are ignored (ideal network; useful in tests).
  bool enforce_capacity = true;
  /// Relative-error denominators are clamped to at least this.
  double error_floor = 1.0;
  /// Injected node outages.
  std::vector<NodeFailure> failures;
  /// Also fill SimReport::pair_mean_error (one entry per pair, in
  /// PairSet::all_pairs() order) — used to score replicated deliveries.
  bool collect_pair_errors = false;
  /// Invoked for every value arriving at the collector — the hook feeding
  /// the data collector / result processor (e.g. the liveness tracker
  /// behind MonitoringSystem::on_delivery). `epoch` is the arrival epoch.
  std::function<void(NodeAttrPair, std::uint64_t epoch, double value)>
      on_delivery;
  /// Invoked once per epoch after all deliveries (e.g. the detect → repair
  /// step of MonitoringSystem::end_epoch).
  std::function<void(std::uint64_t epoch)> on_epoch_end;
  /// Invoked after on_epoch_end; returning a topology redeploys it starting
  /// with the next epoch — the hook that closes the detect → repair →
  /// replan loop (core/monitoring_system.h) against a live simulation.
  /// The collector view and error accounting persist across the swap;
  /// in-flight relay buffers are dropped (links are torn down), and
  /// planned-pair / expected-delivery accounting switches to the new
  /// topology. Return nullptr to keep the current deployment.
  std::function<const Topology*(std::uint64_t epoch)> on_reconfigure;
  /// Registry the run publishes `sim.*` metrics to (messages sent, values
  /// delivered/dropped/re-buffered, per-epoch delivery histogram). Null =
  /// the process-global registry. Publishing happens only while
  /// obs::enabled() — the SimReport fields are the always-on source.
  obs::Registry* metrics = nullptr;
};

struct SimReport {
  std::uint64_t epochs = 0;
  std::size_t total_pairs = 0;
  /// Pairs covered by the topology (the planner's "collected" pairs).
  /// Under on_reconfigure this reflects the last deployed topology.
  std::size_t planned_pairs = 0;

  /// Mean over sampled epochs and all requested pairs of
  /// |collector_view - truth| / max(|truth|, floor) — the Fig. 8 metric.
  double avg_percent_error = 0.0;
  double p95_percent_error = 0.0;

  /// Delivered value-updates / (planned pairs × sampled epochs).
  double delivered_ratio = 0.0;

  std::size_t messages_sent = 0;
  std::size_t values_sent = 0;
  std::size_t values_dropped = 0;
  /// Relayed values deferred to a later message because the link's
  /// capacity ran out this epoch (the store half of store-and-forward
  /// backpressure; each deferral counts once per epoch it waits).
  std::size_t values_rebuffered = 0;

  /// Per-epoch capacity utilization (used / b_i), averaged over epochs.
  double avg_node_utilization = 0.0;
  double max_node_utilization = 0.0;
  double collector_utilization = 0.0;

  /// Mean per-pair error over sampled epochs, aligned with
  /// PairSet::all_pairs(); empty unless SimConfig::collect_pair_errors.
  std::vector<double> pair_mean_error;
};

SimReport simulate(const SystemModel& system, const Topology& topology,
                   const PairSet& pairs, ValueSource& source, const SimConfig& config);

}  // namespace remo
