// Attribute-set partitions (Sec. 3.1): a partition P of the monitored
// attribute universe determines the forest — one monitoring tree per
// partition set, delivering exactly that set's attributes. The two
// degenerate schemes are SINGLETON-SET (one attribute per set, as in PIER)
// and ONE-SET (a single set, as in static-topology systems); REMO's local
// search explores the space between them via merge and split operations
// (Definition 2) over neighboring solutions (Definition 3).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.h"

namespace remo {

class Partition {
 public:
  Partition() = default;
  /// Builds a partition from explicit sets. Each set is sorted/deduped;
  /// empty sets are dropped. Aborts (throws) if sets overlap.
  explicit Partition(std::vector<std::vector<AttrId>> sets);

  /// P = {{a} : a ∈ universe} — the SINGLETON-SET scheme.
  static Partition singleton(const std::vector<AttrId>& universe);
  /// P = {universe} — the ONE-SET scheme.
  static Partition one_set(const std::vector<AttrId>& universe);

  std::size_t num_sets() const noexcept { return sets_.size(); }
  const std::vector<AttrId>& set(std::size_t i) const { return sets_.at(i); }
  const std::vector<std::vector<AttrId>>& sets() const noexcept { return sets_; }

  /// Union of all sets (sorted).
  std::vector<AttrId> universe() const;
  /// Index of the set containing `attr`, or num_sets() if absent.
  std::size_t set_of(AttrId attr) const;
  bool contains(AttrId attr) const { return set_of(attr) != num_sets(); }

  /// Merge operation A_i ⋈ A_j: replaces sets i and j with their union.
  /// Indices refer to the current layout; the merged set takes the lower
  /// index and the tail set shifts down. Aborts on i == j / out of range.
  void merge(std::size_t i, std::size_t j);

  /// Split operation A_i ▷ α: removes α from set i (which must contain it
  /// and have ≥ 2 attributes) and appends {α} as a new set.
  void split(std::size_t i, AttrId attr);

  /// True iff sets are disjoint, non-empty, sorted, and cover exactly
  /// `universe` (when given).
  bool valid() const;
  bool valid_over(const std::vector<AttrId>& universe) const;

  /// Canonical form (sets sorted by first element) for order-insensitive
  /// comparison in tests and memoization keys.
  std::vector<std::vector<AttrId>> canonical() const;
  /// Compact "{a,b}{c}" rendering for logs and test failures.
  std::string to_string() const;

  bool operator==(const Partition& other) const { return canonical() == other.canonical(); }

 private:
  std::vector<std::vector<AttrId>> sets_;
};

/// Attribute pairs that must never share a partition set. Used by the
/// SSDP/DSDP reliability rewriting (Sec. 6.2): an attribute and its alias
/// must ride different trees ("different paths").
class ConflictConstraints {
 public:
  void forbid(AttrId a, AttrId b);
  bool conflicts(AttrId a, AttrId b) const;
  /// True iff merging `x` and `y` (as attribute sets) would co-locate any
  /// forbidden pair.
  bool blocks_merge(const std::vector<AttrId>& x, const std::vector<AttrId>& y) const;
  /// True iff every set of `p` is conflict-free.
  bool satisfied_by(const Partition& p) const;
  bool empty() const noexcept { return pairs_.empty(); }
  std::size_t size() const noexcept { return pairs_.size(); }
  bool operator==(const ConflictConstraints&) const = default;

 private:
  // Stored as (min, max) pairs, sorted.
  std::vector<std::pair<AttrId, AttrId>> pairs_;
};

}  // namespace remo
