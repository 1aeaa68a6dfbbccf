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

// One pass over the nodes: a sorted merge of each node's attributes with
// `attrs` yields its row and whether it monitors any of them. The same
// members (nodes_with_any order), rows and total as nodes_with_any plus
// one contains() probe per cell.
TreeBuildCache::ItemsTemplate make_template(const std::vector<AttrId>& attrs,
                                            const PairSet& pairs) {
  TreeBuildCache::ItemsTemplate t;
  const std::size_t width = attrs.size();
  for (NodeId n = 0; n < pairs.num_vertices(); ++n) {
    const std::vector<AttrId>& mine = pairs.attrs_of(n);
    std::size_t row = 0;
    bool member = false;
    for (std::size_t i = 0, m = 0; i < mine.size() && m < width;) {
      if (mine[i] < attrs[m]) {
        ++i;
      } else if (attrs[m] < mine[i]) {
        ++m;
      } else {
        if (!member) {
          member = true;
          row = t.local.size();
          t.nodes.push_back(n);
          t.local.resize(row + width, 0u);
        }
        t.local[row + m] = 1u;
        ++t.offered;
        ++i;
        ++m;
      }
    }
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
  const ItemsTemplate* cached = nullptr;
  {
    MutexLock lock(mutex_);
    const auto it = templates_.find(attrs);
    if (it != templates_.end()) cached = &it->second;
  }
  if (cached == nullptr) {
    // A miss is computed outside the lock, so concurrent scorers keep
    // looking up while it runs. If another thread inserted the same key
    // first, this copy is dropped and the lookup counts a hit.
    ItemsTemplate fresh = make_template(attrs, pairs);
    MutexLock lock(mutex_);
    const auto [it, inserted] = templates_.try_emplace(attrs, std::move(fresh));
    if (inserted) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return &it->second;
    }
    cached = &it->second;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (validation_enabled()) {
    REMO_VALIDATE(*cached == make_template(attrs, pairs),
                  "tree-build cache served a stale items template: ",
                  attrs.size(), " attrs / ", cached->nodes.size(),
                  " members no longer match the pair set — a pair-set "
                  "change was not invalidated");
  }
  return cached;
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
