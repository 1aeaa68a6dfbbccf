// Memoization of resource-aware tree builds (the hot inner operation of
// the planner's guided local search). A candidate augmentation is scored
// by rebuilding one or two trees; across search iterations the same
// (attribute set, remaining-capacity) build recurs whenever the committed
// operation did not touch the involved nodes — the cache returns the
// previously built entry instead of re-running the construct/adjust loop.
// Only builds that ran a parent scan are worth an entry: the planner
// inserts no other (DESIGN.md §7). A build without one hung every item it
// placed under the collector in O(items), about what a lookup costs, while
// each entry holds a whole tree.
//
// The key is exact, so a hit is bit-identical to a fresh build:
//   - the canonical (sorted) attribute set, which — for a fixed pair set —
//     determines the candidate members and their local value counts;
//   - a remaining-capacity fingerprint: the effective per-member budget
//     (global remaining capacity min the allocation scheme's advisory
//     share) plus the collector's, with every budget clamped at a sound
//     upper bound on any vertex usage the build could ever reach, so that
//     two "effectively unconstrained" budgets memoize to the same entry.
//
// A cache instance is only valid for a fixed (system, attribute specs,
// allocation scheme, tree-build options); the owner (the plan evaluator)
// owns one cache per option set. Pair-set changes invalidate *scoped*:
// an entry reads the pair set only through its own attribute set (the
// candidate list is nodes_with_any(key.attrs) and every local count is
// taken over key.attrs), so a change to pairs over disjoint attributes
// cannot alter the entry — only entries whose attrs intersect the delta
// are evicted (invalidate_attrs), the rest stay bit-exact across churn.
// Under REMO_VALIDATE every hit recomputes its input fingerprint against
// the reference pair set and aborts on mismatch: a stale entry can never
// be served. Thread-safe: lookups and inserts may race freely during
// parallel candidate evaluation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/types.h"
#include "planner/topology.h"
#include "task/pair_set.h"

namespace remo {

struct TreeBuildKey {
  std::vector<AttrId> attrs;   // canonical (sorted) set the tree delivers
  std::vector<NodeId> nodes;   // candidate members, in build order
  std::vector<Capacity> avails;  // clamped effective budget per member
  Capacity collector_avail = 0;  // clamped collector budget

  bool operator==(const TreeBuildKey&) const = default;
};

class TreeBuildCache {
 public:
  /// `memoize` = false keeps every tree build fresh: insert() stores
  /// nothing, so every peek() misses (the never-memoized reference the
  /// determinism properties compare against). Items templates are kept
  /// either way.
  explicit TreeBuildCache(bool memoize = true) : memoize_(memoize) {}

  /// Lookup (REMO_HOT: once per (re)built tree per candidate scored):
  /// returns a pointer to the cached entry, or nullptr, counting a
  /// hit/miss — without copying the tree. The pointee is immutable and the
  /// pointer is stable across concurrent peek()/insert() calls (entries are
  /// never updated in place), but invalidate_attrs() and clear() destroy
  /// it — callers must not hold the pointer across either. Under
  /// REMO_VALIDATE (with a reference pair set installed) a hit's stored
  /// input fingerprint is recomputed and must match — serving a stale
  /// entry aborts.
  const TreeEntry* peek(const TreeBuildKey& key) REMO_EXCLUDES(mutex_);

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
  };
  /// Returns the template for `attrs` (sorted), computing and caching it on
  /// first use (REMO_HOT: one lookup per rebuilt tree per candidate
  /// scored). Invalidated by the same attrs-intersection rule as build
  /// entries — a template reads exactly the pair-set slice over `attrs`.
  /// Pointer stability contract as peek().
  const ItemsTemplate* items_template(const std::vector<AttrId>& attrs,
                                      const PairSet& pairs)
      REMO_EXCLUDES(mutex_);

  /// Inserts (no-op if the key is already present — concurrent builders of
  /// the same key produce identical entries, so first-writer-wins is fine —
  /// or if the cache does not memoize).
  void insert(const TreeBuildKey& key, const TreeEntry& entry)
      REMO_EXCLUDES(mutex_);

  /// Evicts every entry whose attribute set intersects `attrs` (sorted,
  /// unique) — the scoped alternative to clear() when the pair set changed
  /// only over `attrs`. Entries over disjoint attribute sets read nothing
  /// the delta touched and remain exactly reusable. Returns the number of
  /// entries evicted.
  std::size_t invalidate_attrs(const std::vector<AttrId>& attrs)
      REMO_EXCLUDES(mutex_);

  /// Installs the pair set that entries are built against (validation
  /// only; pass nullptr to detach). The pointee must outlive the cache or
  /// the next set_reference_pairs call and is read during peek()/insert()
  /// — safe while builds run, since builders never mutate the pair set.
  void set_reference_pairs(const PairSet* pairs) REMO_EXCLUDES(mutex_);

  void clear() REMO_EXCLUDES(mutex_);
  std::size_t size() const REMO_EXCLUDES(mutex_);
  std::size_t hits() const noexcept { return hits_.load(std::memory_order_relaxed); }
  std::size_t misses() const noexcept { return misses_.load(std::memory_order_relaxed); }

 private:
  struct KeyHash {
    std::size_t operator()(const TreeBuildKey& k) const noexcept;
  };
  struct AttrsHash {
    std::size_t operator()(const std::vector<AttrId>& attrs) const noexcept;
  };
  /// The entry plus a hash of the exact pair-set slice the build consumed:
  /// each candidate's membership in the key's attribute set. Recomputed on
  /// validated hits to prove the entry is not stale.
  struct CachedEntry {
    TreeEntry entry;
    std::uint64_t pair_fingerprint = 0;
  };

  const bool memoize_;
  mutable Mutex mutex_;
  std::unordered_map<TreeBuildKey, CachedEntry, KeyHash> entries_
      REMO_GUARDED_BY(mutex_);
  std::unordered_map<std::vector<AttrId>, ItemsTemplate, AttrsHash> templates_
      REMO_GUARDED_BY(mutex_);
  const PairSet* reference_pairs_ REMO_GUARDED_BY(mutex_) = nullptr;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
};

}  // namespace remo
