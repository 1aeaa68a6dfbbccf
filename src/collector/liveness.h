// Collector-side failure detection (the liveness half of the detect →
// repair → replan loop, see DESIGN.md). The collector is the only vantage
// point a deployment actually has: it never hears "node X died", it only
// stops receiving X's values. This tracker turns delivery gaps into
// explicit up/down state: every node that contributes local values to a
// deployed tree is expected to deliver at least every `interval` epochs
// (its most frequent attribute's send period, Sec. 6.3) plus a pipeline
// grace of `depth` epochs (a value observed at depth d needs d hops); a
// node that misses `missed_deadlines` consecutive deadlines is suspected
// down, and any later delivery from it recovers it.
//
// A dead relay silences its whole subtree, so descendants of a failed node
// are suspected too — by design: the repair pass (adapt/repair.h) re-homes
// every suspected branch, and falsely-suspected descendants recover as
// soon as their values flow again.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "planner/topology.h"

namespace remo {

struct LivenessConfig {
  /// Consecutive missed delivery deadlines before a node is suspected
  /// down (the suspicion threshold; deadline spacing = send period).
  std::uint64_t missed_deadlines = 3;
};

/// A detection edge: a node transitioned up -> suspected-down or back.
struct LivenessEvent {
  NodeId node = kNoNode;
  /// Epoch the event was emitted.
  std::uint64_t epoch = 0;
  /// true: suspected down; false: recovered (a delivery arrived).
  bool down = false;
  /// Epochs since the node's first missed deadline — the time-to-detect
  /// for down events, the outage's observable length for recoveries.
  std::uint64_t lag = 0;
};

class LivenessTracker {
 public:
  explicit LivenessTracker(LivenessConfig config = {}) : config_(config) {}

  /// (Re)derives per-node expectations from a deployed topology: expected
  /// delivery interval = min send period over the node's local attributes,
  /// pipeline grace = the node's max tree depth. Call after every
  /// (re)deployment. Delivery history and down state survive the re-sync;
  /// up nodes that no longer contribute local values are forgotten, nodes
  /// appearing for the first time start their deadline clock at `epoch`.
  /// Suspected nodes are remembered even when absent from the topology
  /// (repair may have dropped them): only a delivery clears down state,
  /// and the recovery it queues survives the re-sync that forgets them.
  void sync(const Topology& topology, std::uint64_t epoch);

  /// Restart every up node's deadline clock at `epoch`. Call after a
  /// (re)deployment: redeploying tears down links and drops in-flight
  /// relay buffers, so a deep node legitimately needs a fresh window of
  /// `grace` epochs before its next value can arrive — without the reset,
  /// every redeploy triggers false suspicions on deep members and the
  /// loop thrashes (repair → redeploy → starve → repair ...). Nodes
  /// already suspected keep their state: their recovery is driven by
  /// deliveries, not deadlines.
  void restart_deadlines(std::uint64_t epoch);

  /// Feed one collector arrival (e.g. from SimConfig::on_delivery).
  /// A delivery from a suspected node queues a recovery event for the next
  /// end_epoch().
  void on_delivery(NodeAttrPair pair, std::uint64_t epoch);

  /// Deadline check at an epoch boundary; returns the detect/recover
  /// events that fired this epoch (recoveries first, then detections by
  /// ascending node id).
  std::vector<LivenessEvent> end_epoch(std::uint64_t epoch);

  bool is_down(NodeId node) const;
  /// Currently suspected-down nodes, ascending.
  std::vector<NodeId> suspected() const;
  /// Nodes under observation (members contributing local values).
  std::size_t tracked() const;
  /// True when some node's down state flipped (a detection or a recovery)
  /// since the last sync(). While it is false, a sync() against the same
  /// topology is the identity, so a caller that knows the topology did not
  /// move may skip it.
  bool flipped_since_sync() const noexcept { return flipped_; }

 private:
  struct State {
    std::uint64_t interval = 1;  ///< expected epochs between deliveries
    std::uint64_t grace = 1;     ///< pipeline depth (hops to the collector)
    std::uint64_t last_seen = 0;
    bool tracked = false;
    bool down = false;
  };

  LivenessConfig config_;
  std::vector<State> nodes_;  ///< indexed by node id
  std::vector<LivenessEvent> pending_;  ///< recoveries queued by on_delivery
  bool flipped_ = false;
};

}  // namespace remo
