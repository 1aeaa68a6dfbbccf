// The one cache of the planner's tree builds: per attribute set, the
// items template every build over that set starts from. A candidate
// augmentation is scored by rebuilding one or two trees, and every build
// over the same attribute set reads the same slice of the pair set — the
// candidate members and their local value counts — whatever the
// per-candidate budgets. The template is that slice, computed once per
// attribute set and reused by every later build.
//
// Built trees themselves are not cached: the scoring pass hands the trees
// of an improving candidate to the commit, which assembles the winner from
// them instead of building it again (DESIGN.md §7).
//
// A cache instance is only valid for a fixed pair set up to the changes
// its owner reports (the plan evaluator syncs it). Pair-set changes
// invalidate *scoped*: a template reads the pair set only through its own
// attribute set, so a change to pairs over disjoint attributes cannot
// alter it — only templates whose attrs intersect the delta are evicted
// (invalidate_attrs), the rest stay exact across churn. Under
// REMO_VALIDATE every hit is recomputed from the pair set the lookup
// passes and must match: a stale template can never be served.
// Thread-safe: lookups may race freely during parallel candidate
// evaluation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/types.h"
#include "task/pair_set.h"

namespace remo {

class TreeBuildCache {
 public:
  /// Everything item construction reads from the pair set for a tree over
  /// `attrs`: the candidate members (nodes_with_any order), their local
  /// count rows, and the offered-pair total. Budgets are deliberately
  /// absent — they vary per candidate; this part is a pure function of
  /// (pairs, attrs) and recurs identically for every candidate scored
  /// over the same attribute set.
  struct ItemsTemplate {
    std::vector<NodeId> nodes;
    std::vector<std::uint32_t> local;  // nodes.size() × attrs.size(), row-major
    std::size_t offered = 0;

    bool operator==(const ItemsTemplate&) const = default;
  };

  /// Returns the template for `attrs` (sorted), computing and caching it on
  /// first use and counting a hit or miss (REMO_HOT: one lookup per
  /// rebuilt tree per candidate scored). The pointee is immutable and
  /// stable across concurrent lookups, but invalidate_attrs() and clear()
  /// destroy it — callers must not hold the pointer across either. Under
  /// REMO_VALIDATE a hit is recomputed from `pairs` and must match —
  /// serving a stale template aborts.
  const ItemsTemplate* items_template(const std::vector<AttrId>& attrs,
                                      const PairSet& pairs)
      REMO_EXCLUDES(mutex_);

  /// Evicts every template whose attribute set intersects `attrs` (sorted,
  /// unique) — the scoped alternative to clear() when the pair set changed
  /// only over `attrs`. Templates over disjoint attribute sets read
  /// nothing the delta touched and remain exact. Returns the number of
  /// templates evicted.
  std::size_t invalidate_attrs(const std::vector<AttrId>& attrs)
      REMO_EXCLUDES(mutex_);

  void clear() REMO_EXCLUDES(mutex_);
  /// Templates held.
  std::size_t size() const REMO_EXCLUDES(mutex_);
  std::size_t hits() const noexcept { return hits_.load(std::memory_order_relaxed); }
  std::size_t misses() const noexcept { return misses_.load(std::memory_order_relaxed); }

 private:
  struct AttrsHash {
    std::size_t operator()(const std::vector<AttrId>& attrs) const noexcept;
  };

  mutable Mutex mutex_;
  std::unordered_map<std::vector<AttrId>, ItemsTemplate, AttrsHash> templates_
      REMO_GUARDED_BY(mutex_);
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
};

}  // namespace remo
