#include "planner/tree_build_cache.h"

#include <cstdint>

#include "common/check.h"
#include "common/sorted_vector.h"

namespace remo {

namespace {

inline void mix(std::uint64_t& h, std::uint64_t v) {
  // FNV-1a style combine over 64-bit lanes.
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

TreeBuildCache::ItemsTemplate make_template(const std::vector<AttrId>& attrs,
                                            const PairSet& pairs) {
  TreeBuildCache::ItemsTemplate t;
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
  return t;
}

}  // namespace

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
  if (it != templates_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (validation_enabled()) {
      REMO_VALIDATE(it->second == make_template(attrs, pairs),
                    "tree-build cache served a stale items template: ",
                    attrs.size(), " attrs / ", it->second.nodes.size(),
                    " members no longer match the pair set — a pair-set "
                    "change was not invalidated");
    }
    return &it->second;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return &templates_.emplace(attrs, make_template(attrs, pairs)).first->second;
}

std::size_t TreeBuildCache::invalidate_attrs(const std::vector<AttrId>& attrs) {
  if (attrs.empty()) return 0;
  MutexLock lock(mutex_);
  // Which templates survive is order-independent (each key is tested in
  // isolation), so hash-order traversal cannot leak into plans.
  return std::erase_if(templates_, [&](const auto& kv) {
    return sets_intersect(kv.first, attrs);
  });
}

void TreeBuildCache::clear() {
  MutexLock lock(mutex_);
  templates_.clear();
}

std::size_t TreeBuildCache::size() const {
  MutexLock lock(mutex_);
  return templates_.size();
}

}  // namespace remo
