#include "planner/tree_build_cache.h"

#include <bit>
#include <cstdint>

#include "common/check.h"
#include "common/sorted_vector.h"

namespace remo {

namespace {

inline void mix(std::uint64_t& h, std::uint64_t v) {
  // FNV-1a style combine over 64-bit lanes.
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

// Hashes the exact pair-set slice a build with this key consumes: which of
// the key's attributes each candidate member monitors. Any pair-set change
// that could alter the built tree changes this value.
std::uint64_t pair_fingerprint(const TreeBuildKey& key, const PairSet& pairs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (NodeId n : key.nodes) {
    mix(h, n);
    if (n >= pairs.num_vertices()) continue;
    for (AttrId a : set_intersection(pairs.attrs_of(n), key.attrs)) mix(h, a);
  }
  return h;
}

}  // namespace

std::size_t TreeBuildCache::KeyHash::operator()(
    const TreeBuildKey& k) const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  mix(h, k.attrs.size());
  for (AttrId a : k.attrs) mix(h, a);
  for (NodeId n : k.nodes) mix(h, n);
  for (Capacity c : k.avails) mix(h, std::bit_cast<std::uint64_t>(c));
  mix(h, std::bit_cast<std::uint64_t>(k.collector_avail));
  return static_cast<std::size_t>(h);
}

std::size_t TreeBuildCache::AttrsHash::operator()(
    const std::vector<AttrId>& attrs) const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  mix(h, attrs.size());
  for (AttrId a : attrs) mix(h, a);
  return static_cast<std::size_t>(h);
}

const TreeBuildCache::ItemsTemplate* TreeBuildCache::items_template(
    const std::vector<AttrId>& attrs, const PairSet& pairs) {
  MutexLock lock(mutex_);
  auto it = templates_.find(attrs);
  if (it != templates_.end()) return &it->second;
  ItemsTemplate t;
  t.nodes = pairs.nodes_with_any(attrs);
  t.local.resize(t.nodes.size() * attrs.size());
  std::size_t row = 0;
  for (NodeId n : t.nodes) {
    for (std::size_t m = 0; m < attrs.size(); ++m) {
      const std::uint32_t v = pairs.contains(n, attrs[m]) ? 1u : 0u;
      t.local[row + m] = v;
      t.offered += v;
    }
    row += attrs.size();
  }
  return &templates_.emplace(attrs, std::move(t)).first->second;
}

const TreeEntry* TreeBuildCache::peek(const TreeBuildKey& key) {
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (validation_enabled() && reference_pairs_ != nullptr) {
        REMO_VALIDATE(
            it->second.pair_fingerprint == pair_fingerprint(key, *reference_pairs_),
            "tree-build cache served a stale entry: ", key.attrs.size(),
            " attrs / ", key.nodes.size(),
            " members no longer match the reference pair set — "
            "a pair-set change was not invalidated");
      }
      hits_.fetch_add(1, std::memory_order_relaxed);
      return &it->second.entry;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void TreeBuildCache::insert(const TreeBuildKey& key, const TreeEntry& entry) {
  if (!memoize_) return;
  MutexLock lock(mutex_);
  CachedEntry cached{entry, 0};
  if (validation_enabled() && reference_pairs_ != nullptr) {
    cached.pair_fingerprint = pair_fingerprint(key, *reference_pairs_);
  }
  entries_.emplace(key, std::move(cached));
}

std::size_t TreeBuildCache::invalidate_attrs(const std::vector<AttrId>& attrs) {
  if (attrs.empty()) return 0;
  MutexLock lock(mutex_);
  // Which entries survive is order-independent (each key is tested in
  // isolation), so hash-order traversal cannot leak into plans.
  std::erase_if(templates_, [&](const auto& kv) {
    return sets_intersect(kv.first, attrs);
  });
  return std::erase_if(entries_, [&](const auto& kv) {
    return sets_intersect(kv.first.attrs, attrs);
  });
}

void TreeBuildCache::set_reference_pairs(const PairSet* pairs) {
  MutexLock lock(mutex_);
  reference_pairs_ = pairs;
}

void TreeBuildCache::clear() {
  MutexLock lock(mutex_);
  entries_.clear();
  templates_.clear();
}

std::size_t TreeBuildCache::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

}  // namespace remo
