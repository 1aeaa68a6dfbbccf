#include "collector/liveness.h"

#include <algorithm>

#include "tree/monitoring_tree.h"

namespace remo {

void LivenessTracker::sync(const Topology& topology, std::uint64_t epoch) {
  std::vector<State> next(nodes_.size());
  for (const auto& entry : topology.entries()) {
    const auto& specs = entry.tree.attr_specs();
    for (NodeId n : entry.tree.members()) {
      // remo-lint: allow(span-store) read-only scan of a const topology; no tree mutation while the view lives
      const auto local = entry.tree.local_counts(n);
      std::uint64_t interval = 0;
      for (std::size_t m = 0; m < specs.size(); ++m) {
        if (local[m] == 0) continue;
        const std::uint64_t p = send_period(specs[m].weight);
        interval = interval == 0 ? p : std::min(interval, p);
      }
      if (interval == 0) continue;  // relay-only member: not observable here
      const std::uint64_t depth = entry.tree.depth(n);
      if (n >= next.size()) next.resize(n + 1);
      State& s = next[n];
      if (!s.tracked) {
        // Carry history over from the previous deployment; a brand-new
        // node starts its deadline clock now.
        s.tracked = true;
        if (n < nodes_.size() && nodes_[n].tracked) {
          s.last_seen = nodes_[n].last_seen;
          s.down = nodes_[n].down;
        } else {
          s.last_seen = epoch;
        }
        s.interval = interval;
        s.grace = depth;
      } else {
        // The node contributes to several trees: the tightest expectation
        // wins on interval, the slowest path on grace.
        s.interval = std::min(s.interval, interval);
        s.grace = std::max(s.grace, depth);
      }
    }
  }
  // Suspected nodes stay remembered even when they leave the deployment
  // (repair may have dropped their branch entirely): forgetting them here
  // would let the next replan re-admit a dead node as a healthy relay,
  // which the deadline check then re-detects a few epochs later — an
  // endless detect/replan flap. Down state only clears on a delivery.
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (!nodes_[n].tracked || !nodes_[n].down || next[n].tracked) continue;
    next[n] = nodes_[n];
  }
  // Queued recoveries stay queued: each is a suspect's recovery, and for
  // a node that left the deployment it is the only news of it.
  nodes_ = std::move(next);
  flipped_ = false;
}

void LivenessTracker::restart_deadlines(std::uint64_t epoch) {
  for (State& s : nodes_)
    if (s.tracked && !s.down) s.last_seen = std::max(s.last_seen, epoch);
}

void LivenessTracker::on_delivery(NodeAttrPair pair, std::uint64_t epoch) {
  if (pair.node >= nodes_.size() || !nodes_[pair.node].tracked) return;
  State& s = nodes_[pair.node];
  if (s.down) {
    s.down = false;
    flipped_ = true;
    LivenessEvent ev;
    ev.node = pair.node;
    ev.epoch = epoch;
    ev.down = false;
    ev.lag = epoch > s.last_seen + s.interval ? epoch - s.last_seen - s.interval
                                              : 0;
    pending_.push_back(ev);
  }
  s.last_seen = std::max(s.last_seen, epoch);
}

std::vector<LivenessEvent> LivenessTracker::end_epoch(std::uint64_t epoch) {
  std::vector<LivenessEvent> events = std::move(pending_);
  pending_.clear();
  // Ascending node ids: detections follow the recoveries in id order.
  for (NodeId node = 0; node < nodes_.size(); ++node) {
    State& s = nodes_[node];
    if (!s.tracked || s.down) continue;
    // Suspect once the silence exceeds the pipeline grace plus
    // `missed_deadlines` whole send periods.
    const std::uint64_t deadline =
        s.last_seen + s.grace + s.interval * config_.missed_deadlines;
    if (epoch <= deadline) continue;
    s.down = true;
    flipped_ = true;
    LivenessEvent ev;
    ev.node = node;
    ev.epoch = epoch;
    ev.down = true;
    ev.lag = epoch - s.last_seen - s.interval;
    events.push_back(ev);
  }
  return events;
}

bool LivenessTracker::is_down(NodeId node) const {
  return node < nodes_.size() && nodes_[node].tracked && nodes_[node].down;
}

std::size_t LivenessTracker::tracked() const {
  return static_cast<std::size_t>(std::count_if(
      nodes_.begin(), nodes_.end(), [](const State& s) { return s.tracked; }));
}

std::vector<NodeId> LivenessTracker::suspected() const {
  std::vector<NodeId> out;
  for (NodeId node = 0; node < nodes_.size(); ++node)
    if (nodes_[node].tracked && nodes_[node].down) out.push_back(node);
  return out;
}

}  // namespace remo
