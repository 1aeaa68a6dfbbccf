// The deduplicated set of node-attribute pairs produced by the task
// manager (Sec. 2.2): the input to the monitoring planner.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.h"

namespace remo {

class PairSet {
 public:
  PairSet() = default;
  /// `num_vertices` = monitoring nodes + collector (node ids < num_vertices).
  explicit PairSet(std::size_t num_vertices) : by_node_(num_vertices) {}

  std::size_t num_vertices() const noexcept { return by_node_.size(); }

  /// Adds pair (node, attr); duplicate adds are ignored (deduplication).
  /// Returns true if the pair was new.
  bool add(NodeId node, AttrId attr);
  /// Removes pair (node, attr); returns true if it was present.
  bool remove(NodeId node, AttrId attr);
  bool contains(NodeId node, AttrId attr) const;

  /// Attributes monitored at `node` (sorted, unique).
  const std::vector<AttrId>& attrs_of(NodeId node) const { return by_node_.at(node); }

  /// Union of all monitored attributes (sorted, unique). Served from the
  /// per-attribute count index: O(|universe|), not O(total pairs).
  std::vector<AttrId> attribute_universe() const;

  /// Number of nodes monitoring `attr` (0 if the attribute is absent).
  std::size_t attr_count(AttrId attr) const;

  /// Nodes that monitor `attr` (sorted).
  std::vector<NodeId> nodes_with(AttrId attr) const;

  /// Nodes that monitor at least one attribute in `attrs` (sorted).
  /// `attrs` must be sorted-unique.
  std::vector<NodeId> nodes_with_any(const std::vector<AttrId>& attrs) const;

  /// Number of attributes of `attrs` monitored at `node` — the message
  /// payload x_i the node contributes to a tree covering `attrs`.
  std::size_t count_at(NodeId node, const std::vector<AttrId>& attrs) const;

  std::size_t total_pairs() const noexcept { return total_; }
  bool empty() const noexcept { return total_ == 0; }

  /// Flattened list of all pairs, ordered by (node, attr).
  std::vector<NodeAttrPair> all_pairs() const;

  bool operator==(const PairSet&) const = default;

 private:
  std::vector<std::vector<AttrId>> by_node_;
  /// Per-attribute pair counts, sorted by attr. Derived from by_node_;
  /// lets delta consumers detect universe entry/exit in O(log U) instead of
  /// re-scanning every node's attribute list.
  std::vector<std::pair<AttrId, std::size_t>> attr_counts_;
  std::size_t total_ = 0;
};

/// Difference between two pair sets: what an update to the task set adds
/// and removes. Drives the runtime-adaptation planner (Sec. 4).
struct PairSetDelta {
  std::vector<NodeAttrPair> added;    ///< sorted-unique, disjoint from removed
  std::vector<NodeAttrPair> removed;  ///< sorted-unique, disjoint from added

  bool empty() const noexcept { return added.empty() && removed.empty(); }
  std::size_t size() const noexcept { return added.size() + removed.size(); }
  /// Attributes touched by the delta (sorted, unique) — the trees covering
  /// these are the reconstructed set T of Sec. 4.1.
  std::vector<AttrId> affected_attrs() const;

  /// Composes `more` on top of this delta with cancellation: a pair this
  /// delta added that `more` removes (or vice versa) drops out entirely, so
  /// bursts of churn that undo themselves coalesce to an empty delta.
  /// Requires both deltas to be exact (added = pairs newly present,
  /// removed = pairs newly absent) for the composition to stay exact.
  void merge(const PairSetDelta& more);
};

PairSetDelta diff(const PairSet& before, const PairSet& after);

/// Applies `delta` to `pairs` in place. Pairs referencing nodes outside
/// the set's vertex range are skipped (mirrors TaskManager::dedup's
/// clamping). Returns the number of pairs actually changed.
std::size_t apply_delta(PairSet& pairs, const PairSetDelta& delta);

/// Drops pairs on nodes ≥ `num_vertices` — the same clamping dedup()
/// applies, for delta consumers that never materialize the full set.
PairSetDelta clamp_to_vertices(PairSetDelta delta, std::size_t num_vertices);

}  // namespace remo
