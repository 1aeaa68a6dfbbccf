#include "tree/monitoring_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <stdexcept>

namespace remo {

namespace {
constexpr double kEps = 1e-9;

std::size_t row_sum(const std::uint32_t* row, std::size_t n) noexcept {
  return static_cast<std::size_t>(simd::sum_u32(row, n));
}
}  // namespace

std::uint64_t send_period(double weight) noexcept {
  const double w = std::clamp(weight, 1e-6, 1.0);
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(1.0 / w)));
}

MonitoringTree::MonitoringTree(std::vector<TreeAttrSpec> attrs,
                               Capacity collector_avail, CostModel cost)
    : attrs_(std::move(attrs)),
      cost_(cost),
      stride_(simd::padded_count(attrs_.size())) {
  // Identity funnels with unit weights (the dominant workload: holistic
  // collection, uniform frequencies) make every payload an exact integer
  // sum — the O(1)-per-hop walk fast paths apply (DESIGN.md §15).
  uniform_identity_ = true;
  for (const auto& a : attrs_) {
    const bool identity = a.funnel.type() == AggType::kHolistic ||
                          a.funnel.type() == AggType::kDistinct;
    if (!identity || a.weight != 1.0) {
      uniform_identity_ = false;
      break;
    }
  }
  // Slot 0 is the collector, forever.
  id_.push_back(kCollectorId);
  parent_.push_back(kNoSlot);
  depth_.push_back(0);
  avail_.push_back(collector_avail);
  y_.push_back(0.0);
  recv_.push_back(0.0);
  in_.assign(stride_, 0);
  local_.assign(stride_, 0);
  children_.emplace_back();
  lookup_.assign(1, kRootSlot);
  // Scratch rows share the arena's padded layout; padding beyond
  // num_attrs() is zero here and is never written afterwards.
  walk_delta_.resize(stride_);
  walk_next_.resize(stride_);
  out_scratch_.resize(stride_);
}

void MonitoringTree::reserve(std::size_t members) {
  const std::size_t slots = members + 1;
  id_.reserve(slots);
  parent_.reserve(slots);
  depth_.reserve(slots);
  avail_.reserve(slots);
  y_.reserve(slots);
  recv_.reserve(slots);
  children_.reserve(slots);
  in_.reserve(slots * stride_);
  local_.reserve(slots * stride_);
}

std::vector<AttrId> MonitoringTree::attr_ids() const {
  std::vector<AttrId> ids;
  ids.reserve(attrs_.size());
  for (const auto& s : attrs_) ids.push_back(s.attr);
  return ids;
}

MonitoringTree::Slot MonitoringTree::slot_of(NodeId id) const {
  if (!contains(id)) throw std::out_of_range("node not in tree");
  return lookup_[id];
}

MonitoringTree::Slot MonitoringTree::alloc_slot() {
  if (!free_.empty()) {
    const Slot s = free_.back();
    free_.pop_back();
    return s;
  }
  const Slot s = static_cast<Slot>(id_.size());
  id_.push_back(kNoNode);
  parent_.push_back(kNoSlot);
  depth_.push_back(0);
  avail_.push_back(0.0);
  y_.push_back(0.0);
  recv_.push_back(0.0);
  in_.resize(in_.size() + stride_, 0);
  local_.resize(local_.size() + stride_, 0);
  children_.emplace_back();
  // Growth may reallocate the row storage; the aligned allocator plus the
  // padded stride must keep every row on a kAlign boundary.
  REMO_DCHECK(reinterpret_cast<std::uintptr_t>(in_row(s)) % simd::kAlign == 0 &&
                  reinterpret_cast<std::uintptr_t>(local_row(s)) % simd::kAlign == 0,
              "arena reallocation broke the row alignment contract at slot ", s);
  return s;
}

double MonitoringTree::weighted_out(const std::uint32_t* in) const {
  const std::size_t n = attrs_.size();
  if (uniform_identity_) {
    // Σ 1.0·in[m] over exact integers: identical bits to the scalar
    // sequential sum below (values stay far under 2^53).
    return static_cast<double>(simd::sum_u32(in, n));
  }
  double y = 0.0;
  for (std::size_t m = 0; m < n; ++m)
    y += attrs_[m].weight * static_cast<double>(attrs_[m].funnel(in[m]));
  return y;
}

NodeId MonitoringTree::parent(NodeId id) const {
  const Slot p = parent_[slot_of(id)];
  return p == kNoSlot ? kNoNode : id_[p];
}

const std::vector<NodeId>& MonitoringTree::children(NodeId id) const {
  return children_[slot_of(id)];
}

std::size_t MonitoringTree::depth(NodeId id) const { return depth_[slot_of(id)]; }

std::size_t MonitoringTree::height() const {
  std::size_t h = 0;
  for (NodeId n : members_) h = std::max<std::size_t>(h, depth_[lookup_[n]]);
  return h;
}

std::vector<NodeId> MonitoringTree::branch_nodes(NodeId r) const {
  std::vector<NodeId> out;
  branch_nodes(r, out);
  return out;
}

void MonitoringTree::branch_nodes(NodeId r, std::vector<NodeId>& out) const {
  // `out` doubles as the BFS queue: entries before `i` are visited.
  out.assign(1, r);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Slot s = slot_of(out[i]);
    out.insert(out.end(), children_[s].begin(), children_[s].end());
  }
}

bool MonitoringTree::in_subtree(NodeId id, NodeId r) const {
  return slot_in_subtree(slot_of(id), slot_of(r));
}

bool MonitoringTree::slot_in_subtree(Slot s, Slot r) const noexcept {
  while (depth_[s] > depth_[r]) s = parent_[s];
  return s == r;
}

double MonitoringTree::payload(NodeId id) const {
  const Slot s = slot_of(id);
  return s == kRootSlot ? 0.0 : y_[s];
}

Capacity MonitoringTree::send_cost(NodeId id) const {
  const Slot s = slot_of(id);
  if (s == kRootSlot) return 0.0;
  return cost_.per_message + cost_.per_value * y_[s];
}

Capacity MonitoringTree::usage(NodeId id) const {
  const Slot s = slot_of(id);
  return (s == kRootSlot ? 0.0 : cost_.per_message + cost_.per_value * y_[s]) +
         recv_[s];
}

Capacity MonitoringTree::avail(NodeId id) const { return avail_[slot_of(id)]; }

void MonitoringTree::set_avail(NodeId id, Capacity avail) {
  REMO_ASSERT(avail + 1e-9 >= usage(id), "set_avail below current usage: node ",
              id, " avail ", avail, " < usage ", usage(id));
  const Slot s = slot_of(id);
  javail(s);
  avail_[s] = avail;
  bump_generation();
  deep_validate("set_avail");
}

CountSpan MonitoringTree::in_counts(NodeId id) const {
  return CountSpan{in_row(slot_of(id)), attrs_.size(), this, generation_};
}

std::vector<std::uint32_t> MonitoringTree::out_counts(NodeId id) const {
  const std::uint32_t* in = in_row(slot_of(id));
  std::vector<std::uint32_t> out(attrs_.size());
  for (std::size_t m = 0; m < attrs_.size(); ++m) out[m] = attrs_[m].funnel(in[m]);
  return out;
}

CountSpan MonitoringTree::local_counts(NodeId id) const {
  return CountSpan{local_row(slot_of(id)), attrs_.size(), this, generation_};
}

Capacity MonitoringTree::total_cost() const {
  if (cost_cache_.valid.load(std::memory_order_acquire))
    return cost_cache_.value.load(std::memory_order_relaxed);
  Capacity total = 0;
  for (NodeId n : members_) {
    const Slot s = lookup_[n];
    total += cost_.per_message + cost_.per_value * y_[s];
  }
  cost_cache_.value.store(total, std::memory_order_relaxed);
  cost_cache_.valid.store(true, std::memory_order_release);
  return total;
}

// REMO_HOT: one call per candidate parent per construction pass.
bool MonitoringTree::feasible_add(Slot parent, const std::uint32_t* child_out,
                                  double child_u, NodeId* blocker) const {
  const std::size_t n = attrs_.size();
  if (uniform_identity_) {
    // Identity trees never materialize the delta row: the payload delta at
    // every ancestor hop is the child's (unsigned, exact) out total.
    const std::uint64_t total = simd::sum_u32(child_out, n);
    return feasible_walk_identity(parent, child_u, static_cast<double>(total),
                                  total != 0, blocker);
  }
  simd::load_i64_from_u32(walk_delta_.data(), child_out, n, +1);
  return feasible_walk_scratch(parent, child_u, blocker);
}

// REMO_HOT: the innermost loop of every build — zero allocations per
// ancestor hop (walk buffers are preallocated per tree).
bool MonitoringTree::feasible_walk_scratch(Slot parent, Capacity recv_delta,
                                           NodeId* blocker) const {
  const std::size_t n = attrs_.size();
  if (uniform_identity_) {
    // Scratch padding is zero, so the vector sums may run the full padded
    // stride with no tail.
    const double dsum =
        static_cast<double>(simd::sum_i64(walk_delta_.data(), stride_));
    const bool changed = simd::any_nonzero_i64(walk_delta_.data(), stride_);
    return feasible_walk_identity(parent, recv_delta, dsum, changed, blocker);
  }
  const TreeAttrSpec* specs = attrs_.data();
  Slot q = parent;
  while (true) {
    if (q == kRootSlot) {
      if (recv_[q] + recv_delta > avail_[q] + kEps) {
        if (blocker) *blocker = kCollectorId;
        return false;
      }
      return true;
    }
    // New in-counts and the resulting payload change at q. The payload sum
    // stays scalar-sequential on this general path: funnel weights make it
    // a float reduction whose rounding order is part of the bit-identical
    // plan contract.
    const std::uint32_t* in = in_row(q);
    double new_y = 0.0;
    for (std::size_t m = 0; m < n; ++m) {
      const auto old_in = in[m];
      const auto new_in = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(old_in) + walk_delta_[m]);
      const auto old_out = specs[m].funnel(old_in);
      const auto new_out = specs[m].funnel(new_in);
      walk_next_[m] =
          static_cast<std::int64_t>(new_out) - static_cast<std::int64_t>(old_out);
      new_y += specs[m].weight * static_cast<double>(new_out);
    }
    const double dy = new_y - y_[q];
    const Capacity use = cost_.per_message + cost_.per_value * y_[q] + recv_[q];
    if (use + recv_delta + cost_.per_value * dy > avail_[q] + kEps) {
      if (blocker) *blocker = id_[q];
      return false;
    }
    const bool changed = simd::any_nonzero_i64(walk_next_.data(), stride_);
    if (!changed && dy == 0.0) return true;  // ancestors unaffected
    recv_delta = cost_.per_value * dy;
    walk_delta_.swap(walk_next_);
    q = parent_[q];
  }
}

// REMO_HOT: O(1) per ancestor hop — no per-attribute loop at all. With
// identity funnels the out delta of every hop equals the in delta, so `dy`
// is the constant `dsum` and only the capacity predicate remains per hop.
// `dsum` and every cached y are exact integers held in doubles, so each
// comparison evaluates the same bits the general path would produce.
bool MonitoringTree::feasible_walk_identity(Slot parent, Capacity recv_delta,
                                            double dsum, bool changed,
                                            NodeId* blocker) const {
  Slot q = parent;
  while (true) {
    if (q == kRootSlot) {
      if (recv_[q] + recv_delta > avail_[q] + kEps) {
        if (blocker) *blocker = kCollectorId;
        return false;
      }
      return true;
    }
    const Capacity use = cost_.per_message + cost_.per_value * y_[q] + recv_[q];
    if (use + recv_delta + cost_.per_value * dsum > avail_[q] + kEps) {
      if (blocker) *blocker = id_[q];
      return false;
    }
    // dsum can be zero with cancelling nonzero deltas — ancestors' in-rows
    // still change then, and the walk must keep checking (their payloads
    // do not move, but the general path walks on; match it).
    if (!changed && dsum == 0.0) return true;  // ancestors unaffected
    recv_delta = cost_.per_value * dsum;
    q = parent_[q];
  }
}

void MonitoringTree::propagate(Slot parent, const std::uint32_t* child_out,
                               int sign) {
  simd::load_i64_from_u32(walk_delta_.data(), child_out, attrs_.size(), sign);
  propagate_scratch(parent);
}

// REMO_HOT: runs once per committed mutation, walking the ancestor chain.
void MonitoringTree::propagate_scratch(Slot parent) {
  const std::size_t n = attrs_.size();
  if (uniform_identity_) {
    // Identity fast path: every hop takes the same in-row delta (a vector
    // integer add over the padded stride — delta padding is zero) and the
    // payload moves by the exact integer dsum.
    const double dsum =
        static_cast<double>(simd::sum_i64(walk_delta_.data(), stride_));
    const bool changed = simd::any_nonzero_i64(walk_delta_.data(), stride_);
    Slot q = parent;
    while (true) {
      jloads(q);
      simd::add_i64_to_u32(in_row(q), walk_delta_.data(), stride_);
      const double old_y = y_[q];
      y_[q] = old_y + dsum;  // == weighted_out(new row): exact integers
      if (q != kRootSlot) {
        jloads(parent_[q]);
        recv_[parent_[q]] += cost_.per_value * (y_[q] - old_y);
      }
      if (q == kRootSlot || !changed) return;
      q = parent_[q];
    }
  }
  const TreeAttrSpec* specs = attrs_.data();
  Slot q = parent;
  while (true) {
    jloads(q);
    std::uint32_t* in = in_row(q);
    for (std::size_t m = 0; m < n; ++m) {
      const auto old_out = specs[m].funnel(in[m]);
      const auto new_in = static_cast<std::int64_t>(in[m]) + walk_delta_[m];
      in[m] = static_cast<std::uint32_t>(new_in);
      const auto new_out = specs[m].funnel(in[m]);
      walk_next_[m] =
          static_cast<std::int64_t>(new_out) - static_cast<std::int64_t>(old_out);
    }
    const bool changed = simd::any_nonzero_i64(walk_next_.data(), stride_);
    const double old_y = y_[q];
    y_[q] = weighted_out(in);
    // q's message grew/shrank: its parent's cached receive load follows.
    if (q != kRootSlot) {
      jloads(parent_[q]);
      recv_[parent_[q]] += cost_.per_value * (y_[q] - old_y);
    }
    if (q == kRootSlot || !changed) return;
    walk_delta_.swap(walk_next_);
    q = parent_[q];
  }
}

bool MonitoringTree::can_attach(const BuildItem& item, NodeId parent,
                                NodeId* blocker) const {
  const std::size_t n = attrs_.size();
  if (item.local.size() != n)
    throw std::invalid_argument("BuildItem count vector size mismatch");
  if (contains(item.id) || !contains(parent)) return false;
  if (uniform_identity_) {
    std::copy(item.local.begin(), item.local.end(), out_scratch_.begin());
  } else {
    for (std::size_t m = 0; m < n; ++m)
      out_scratch_[m] = attrs_[m].funnel(item.local[m]);
  }
  const double y = weighted_out(item.local.data());
  const Capacity u = cost_.per_message + cost_.per_value * y;
  if (u > item.avail + kEps) {
    if (blocker) *blocker = item.id;
    return false;
  }
  return feasible_add(lookup_[parent], out_scratch_.data(), u, blocker);
}

MonitoringTree::AttachScan::AttachScan(const MonitoringTree& tree,
                                       const BuildItem& item)
    : tree_(&tree), item_(&item), generation_(tree.generation_) {
  if (item.local.size() != tree.attrs_.size())
    throw std::invalid_argument("BuildItem count vector size mismatch");
  if (tree.contains(item.id)) {
    item_member_ = true;
    return;
  }
  const double y = tree.weighted_out(item.local.data());
  child_u_ = tree.cost_.per_message + tree.cost_.per_value * y;
  if (child_u_ > item.avail + kEps) {
    self_fail_ = true;
    return;
  }
  fast_ = tree.uniform_identity_;  // else queries fall back to the walk
}

// Both walk predicates at a member slot q, verbatim from
// feasible_walk_identity: the parent hop (the child's message joins q) and
// the ancestor hop (q's message grows by the child's payload). The
// collector's parent hop reads its receive load only.
bool MonitoringTree::hop_fails(Slot q, Capacity child_u,
                               Capacity pvd) const noexcept {
  if (q == kRootSlot) return recv_[q] + child_u > avail_[q] + kEps;
  const Capacity use = cost_.per_message + cost_.per_value * y_[q] + recv_[q];
  return (use + child_u) + pvd > avail_[q] + kEps;
}

bool MonitoringTree::parent_hop_fails(NodeId v, std::uint64_t total) const {
  const double dsum = static_cast<double>(total);
  return hop_fails(slot_of(v), cost_.per_message + cost_.per_value * dsum,
                   cost_.per_value * dsum);
}

void MonitoringTree::build_attach_masks(const BuildItem& item,
                                        Capacity child_u) const {
  const std::uint64_t total = simd::sum_u32(item.local.data(), attrs_.size());
  const double dsum = static_cast<double>(total);
  const bool changed = total != 0;
  const Capacity pvd = cost_.per_value * dsum;
  scan_skip_anc_ = !changed && dsum == 0.0;

  const std::size_t slots = id_.size();
  scan_pfail_.resize(slots);
  scan_afail_.resize(slots);
  scan_done_.resize(slots);
  scan_anc_blocker_.resize(slots);

  // The collector's own parent hop is answered without the masks
  // (AttachScan::can_attach); only its ancestor hop seeds the chase.
  scan_anc_blocker_[kRootSlot] =
      hop_fails(kRootSlot, pvd, pvd) ? kCollectorId : kNoNode;
  scan_done_[kRootSlot] = 1;

  // One linear pass over the arena: both hop predicates of
  // feasible_walk_identity, evaluated with its verbatim expressions (this
  // is what makes every query agree with the walk bit for bit). Free slots
  // get garbage values from stale loads; they are never queried. The
  // ancestor hop is the parent hop with the child's message cost replaced
  // by its payload cost.
  for (Slot q = 1; q < slots; ++q) {
    scan_pfail_[q] = hop_fails(q, child_u, pvd);
    scan_afail_[q] = hop_fails(q, pvd, pvd);
    scan_done_[q] = 0;
  }

  // Nearest failing ancestor, memoized up the parent chains (slot order is
  // not topological after branch moves, so chase and unwind instead of a
  // single ordered sweep; each slot is resolved exactly once).
  for (Slot q = 1; q < slots; ++q) {
    if (id_[q] == kNoNode || scan_done_[q]) continue;
    Slot w = q;
    slot_stack_.clear();
    while (!scan_done_[w]) {
      slot_stack_.push_back(w);
      w = parent_[w];
    }
    NodeId b = scan_anc_blocker_[w];
    for (auto it = slot_stack_.rbegin(); it != slot_stack_.rend(); ++it) {
      if (scan_afail_[*it]) b = id_[*it];
      scan_anc_blocker_[*it] = b;
      scan_done_[*it] = 1;
    }
  }
}

bool MonitoringTree::AttachScan::can_attach(NodeId parent,
                                            NodeId* blocker) const {
  const MonitoringTree& t = *tree_;
  REMO_DCHECK(generation_ == t.generation_,
              "stale AttachScan: tree mutated since attach_scan()");
  if (item_member_ || !t.contains(parent)) return false;
  if (self_fail_) {
    if (blocker) *blocker = item_->id;
    return false;
  }
  if (!fast_) return t.can_attach(*item_, parent, blocker);
  const Slot v = t.lookup_[parent];
  if (v == kRootSlot) {
    // The collector's parent hop is the whole walk: no masks needed.
    if (!t.hop_fails(kRootSlot, child_u_, 0.0)) return true;
    if (blocker) *blocker = kCollectorId;
    return false;
  }
  if (!masks_built_) {
    t.build_attach_masks(*item_, child_u_);
    masks_built_ = true;
  }
  if (t.scan_pfail_[v]) {
    if (blocker) *blocker = t.id_[v];
    return false;
  }
  if (t.scan_skip_anc_) return true;
  const NodeId anc = t.scan_anc_blocker_[t.parent_[v]];
  if (anc != kNoNode) {
    if (blocker) *blocker = anc;
    return false;
  }
  return true;
}

void MonitoringTree::attach(const BuildItem& item, NodeId parent) {
  NodeId blocker = kNoNode;
  const bool ok = try_attach(item, parent, &blocker);
  REMO_ASSERT(ok, "infeasible attach (callers must check first): node=",
              item.id, " under parent=", parent, " blocked at node=", blocker,
              " item avail=", item.avail);
}

bool MonitoringTree::try_attach(const BuildItem& item, NodeId parent,
                                NodeId* blocker) {
  const std::size_t n = attrs_.size();
  if (item.local.size() != n)
    throw std::invalid_argument("BuildItem count vector size mismatch");
  if (contains(item.id) || !contains(parent)) return false;
  if (uniform_identity_) {
    std::copy(item.local.begin(), item.local.end(), out_scratch_.begin());
  } else {
    for (std::size_t m = 0; m < n; ++m)
      out_scratch_[m] = attrs_[m].funnel(item.local[m]);
  }
  const double y = weighted_out(item.local.data());
  const Capacity u = cost_.per_message + cost_.per_value * y;
  if (u > item.avail + kEps) {
    if (blocker) *blocker = item.id;
    return false;
  }
  const Slot p = lookup_[parent];
  if (!feasible_add(p, out_scratch_.data(), u, blocker)) return false;

  // Feasible: apply. out_scratch_ survives alloc_slot (separate storage).
  const Slot s = alloc_slot();
  id_[s] = item.id;
  parent_[s] = p;
  depth_[s] = depth_[p] + 1;
  avail_[s] = item.avail;
  y_[s] = y;
  recv_[s] = 0.0;
  std::copy(item.local.begin(), item.local.end(), local_row(s));
  std::copy(item.local.begin(), item.local.end(), in_row(s));
  if (item.id >= lookup_.size()) lookup_.resize(item.id + 1, kNoSlot);
  lookup_[item.id] = s;
  members_.push_back(item.id);
  collected_pairs_ += row_sum(local_row(s), stride());
  jcreate(s, static_cast<std::uint32_t>(members_.size() - 1));
  jloads(p);
  children_[p].push_back(item.id);
  jchild_insert(p);
  recv_[p] += u;
  propagate(p, out_scratch_.data(), +1);
  bump_generation();
  deep_validate("try_attach");
  return true;
}

void MonitoringTree::unlink(Slot r, const std::uint32_t* out, Capacity u) {
  const Slot op = parent_[r];
  auto& kids = children_[op];
  const auto it = std::find(kids.begin(), kids.end(), id_[r]);
  jchild_erase(op, static_cast<std::uint32_t>(it - kids.begin()), id_[r]);
  kids.erase(it);
  jloads(op);
  recv_[op] -= u;
  propagate(op, out, -1);
}

void MonitoringTree::relink(Slot r, Slot parent, const std::uint32_t* out,
                            Capacity u) {
  propagate(parent, out, +1);
  jloads(parent);
  children_[parent].push_back(id_[r]);
  jchild_insert(parent);
  recv_[parent] += u;
}

template <class TargetAt, class TestedElsewhere>
std::size_t MonitoringTree::first_fit(Slot rs, std::size_t n, TargetAt target,
                                      TestedElsewhere tested_elsewhere) {
  const Slot ops = parent_[rs];
  // r's out row and message cost do not change while the branch is
  // unlinked, so one unlink serves every target: each test is then the
  // non-mutating walk a fresh move_branch would run after its own unlink.
  Capacity u = 0.0;
  bool unlinked = false;
  auto unlink_once = [&] {
    if (unlinked) return;
    const std::uint32_t* in = in_row(rs);
    for (std::size_t m = 0; m < attrs_.size(); ++m)
      out_scratch_[m] = attrs_[m].funnel(in[m]);
    u = cost_.per_message + cost_.per_value * y_[rs];
    unlink(rs, out_scratch_.data(), u);
    unlinked = true;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId t = target(i);
    if (!contains(t)) continue;
    const Slot nps = lookup_[t];
    if (nps == ops || slot_in_subtree(nps, rs)) continue;  // no-op, or a cycle
    unlink_once();
    if (!feasible_add(nps, out_scratch_.data(), u, nullptr)) continue;
    relink(rs, nps, out_scratch_.data(), u);
    jparent(rs);
    parent_[rs] = nps;
    // Re-base the cached depth of the whole branch.
    const std::int64_t shift = static_cast<std::int64_t>(depth_[nps]) + 1 -
                               static_cast<std::int64_t>(depth_[rs]);
    if (shift != 0) {
      slot_stack_.assign(1, rs);
      while (!slot_stack_.empty()) {
        const Slot s = slot_stack_.back();
        slot_stack_.pop_back();
        jdepth(s);
        depth_[s] = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(depth_[s]) + shift);
        for (NodeId c : children_[s]) slot_stack_.push_back(lookup_[c]);
      }
    }
    bump_generation();
    deep_validate("move_branch");
    return i;
  }
  if (!unlinked && tested_elsewhere()) unlink_once();
  if (unlinked) {
    // No tested target fits: back under the old parent, at the back of its
    // child list (what a failed move_branch has always left).
    relink(rs, ops, out_scratch_.data(), u);
    bump_generation();
    deep_validate("move_branch");
  }
  return n;
}

std::size_t MonitoringTree::move_branch_first(NodeId r,
                                              std::span<const NodeId> targets) {
  if (!contains(r)) return targets.size();
  return first_fit(
      lookup_[r], targets.size(), [&](std::size_t i) { return targets[i]; },
      [] { return false; });
}

// REMO_HOT: one call per pruned branch in the adjusting procedure.
std::size_t MonitoringTree::move_branch_ranked(NodeId r,
                                               std::span<RankedTarget> targets) {
  if (!contains(r)) return targets.size();
  const Slot rs = lookup_[r];
  const Slot ops = parent_[rs];
  // Targets that may take the branch go to the front; the rest fail their
  // own hop. On a non-identity tree every target stays in front.
  auto cut = targets.end();
  if (uniform_identity_ && ops != kNoSlot) {
    // ops's root path by depth: the vertices whose loads the unlink moves.
    slot_stack_.resize(depth_[ops] + 1);
    for (Slot s = ops; s != kNoSlot; s = parent_[s]) slot_stack_[depth_[s]] = s;
    // The first hop of the walk feasible_add runs for the unlinked branch:
    // its message cost, and the payload cost of its out total.
    const double dsum =
        static_cast<double>(simd::sum_u32(in_row(rs), attrs_.size()));
    const Capacity u = cost_.per_message + cost_.per_value * y_[rs];
    const Capacity pvd = cost_.per_value * dsum;
    cut = std::partition(targets.begin(), targets.end(),
                         [&](const RankedTarget& t) {
                           if (!contains(t.second)) return true;  // skipped
                           const Slot q = lookup_[t.second];
                           if (depth_[q] <= depth_[ops] &&
                               slot_stack_[depth_[q]] == q)
                             return true;  // loads move with the unlink
                           return !hop_fails(q, u, pvd);
                         });
  }
  const auto above = [](const RankedTarget& x, const RankedTarget& y) {
    if (x.first != y.first) return x.first > y.first;
    return x.second < y.second;
  };
  std::sort(targets.begin(), cut, above);
  const auto ranked = static_cast<std::size_t>(cut - targets.begin());
  const std::size_t pos = first_fit(
      rs, ranked, [&](std::size_t i) { return targets[i].second; }, [&] {
        // A target left unsorted is present and off ops's root path, so
        // the sorted call tests it unless it lies inside the branch.
        return std::any_of(cut, targets.end(), [&](const RankedTarget& t) {
          return !slot_in_subtree(lookup_[t.second], rs);
        });
      });
  if (pos == ranked) return targets.size();
  const RankedTarget& taker = targets[pos];
  return static_cast<std::size_t>(
      std::count_if(targets.begin(), targets.end(),
                    [&](const RankedTarget& t) { return above(t, taker); }));
}

std::vector<BuildItem> MonitoringTree::detach_branch(NodeId r) {
  const Slot rs = slot_of(r);
  if (rs == kRootSlot) throw std::out_of_range("cannot detach the collector");
  const auto nodes = branch_nodes(r);
  const auto out = out_counts(r);
  unlink(rs, out.data(), send_cost(r));
  std::vector<BuildItem> items;
  items.reserve(nodes.size());
  for (NodeId id : nodes) {
    const Slot s = lookup_[id];
    // BuildItem locals are num_attrs()-wide (the public layout); the padded
    // stride is an arena-internal detail.
    items.push_back(BuildItem{
        id,
        std::vector<std::uint32_t>(local_row(s), local_row(s) + attrs_.size()),
        avail_[s]});
  }
  for (NodeId id : nodes) {
    const Slot s = lookup_[id];
    const auto mit = std::find(members_.begin(), members_.end(), id);
    jdestroy(s, static_cast<std::uint32_t>(mit - members_.begin()));
    collected_pairs_ -= row_sum(local_row(s), stride());
    members_.erase(mit);
    lookup_[id] = kNoSlot;
    id_[s] = kNoNode;
    parent_[s] = kNoSlot;
    children_[s].clear();
    free_.push_back(s);
  }
  bump_generation();
  deep_validate("detach_branch");
  return items;
}

bool MonitoringTree::can_update_local(
    NodeId id, const std::vector<std::uint32_t>& new_local) const {
  const std::size_t n = attrs_.size();
  if (new_local.size() != n)
    throw std::invalid_argument("local count vector size mismatch");
  if (!contains(id) || id == kCollectorId) return false;
  const Slot s = lookup_[id];
  const std::uint32_t* in = in_row(s);
  const std::uint32_t* local = local_row(s);
  // out_scratch_ holds the would-be in-counts; walk_delta_ the out deltas.
  for (std::size_t m = 0; m < n; ++m) {
    out_scratch_[m] = in[m] - local[m] + new_local[m];
    walk_delta_[m] = static_cast<std::int64_t>(attrs_[m].funnel(out_scratch_[m])) -
                     static_cast<std::int64_t>(attrs_[m].funnel(in[m]));
  }
  const double dy = weighted_out(out_scratch_.data()) - y_[s];
  // Only the node's own send cost changes locally; receives are untouched.
  const Capacity use = cost_.per_message + cost_.per_value * y_[s] + recv_[s];
  if (use + cost_.per_value * dy > avail_[s] + kEps) return false;
  return feasible_walk_scratch(parent_[s], cost_.per_value * dy, nullptr);
}

bool MonitoringTree::update_local(NodeId id,
                                  const std::vector<std::uint32_t>& new_local) {
  if (!can_update_local(id, new_local)) return false;
  const Slot s = lookup_[id];
  jlocal(s);
  jloads(s);
  std::uint32_t* in = in_row(s);
  std::uint32_t* local = local_row(s);
  const double old_y = y_[s];
  const std::size_t n = attrs_.size();
  for (std::size_t m = 0; m < n; ++m) {
    const auto old_out = attrs_[m].funnel(in[m]);
    in[m] = in[m] - local[m] + new_local[m];
    walk_delta_[m] = static_cast<std::int64_t>(attrs_[m].funnel(in[m])) -
                     static_cast<std::int64_t>(old_out);
  }
  collected_pairs_ -= row_sum(local, stride());
  std::copy(new_local.begin(), new_local.end(), local);
  collected_pairs_ += row_sum(local, stride());
  y_[s] = weighted_out(in);
  jloads(parent_[s]);
  recv_[parent_[s]] += cost_.per_value * (y_[s] - old_y);
  propagate_scratch(parent_[s]);
  bump_generation();
  deep_validate("update_local");
  return true;
}

void MonitoringTree::restore_iteration_order(
    const std::vector<NodeId>& members,
    const std::vector<std::pair<NodeId, std::vector<NodeId>>>& children) {
  const auto permutation_of = [](std::vector<NodeId> a, std::vector<NodeId> b) {
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return a == b;
  };
  REMO_ASSERT(permutation_of(members, members_),
              "restore_iteration_order: member list is not a permutation of "
              "the live one (", members.size(), " given, ", members_.size(),
              " live)");
  members_ = members;
  for (const auto& [vertex, order] : children) {
    const Slot s = slot_of(vertex);
    REMO_ASSERT(permutation_of(order, children_[s]),
                "restore_iteration_order: child list of node ", vertex,
                " is not a permutation of the live one (", order.size(),
                " given, ", children_[s].size(), " live)");
    children_[s] = order;
  }
  bump_generation();
  deep_validate("restore_iteration_order");
}

void MonitoringTree::renumber_dfs() {
  REMO_ASSERT(!journal_on_,
              "renumber_dfs while journaling: the undo log records slot "
              "numbers and would replay into the wrong rows");
  const std::size_t live = members_.size() + 1;
  // Preorder over live slots, visiting children in child-list order (the
  // deterministic order everything else already iterates).
  std::vector<Slot> order;
  order.reserve(live);
  std::vector<Slot> stack{kRootSlot};
  while (!stack.empty()) {
    const Slot s = stack.back();
    stack.pop_back();
    order.push_back(s);
    const auto& kids = children_[s];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it)
      stack.push_back(lookup_[*it]);
  }
  REMO_ASSERT(order.size() == live, "renumber_dfs: preorder visited ",
              order.size(), " slots, expected ", live);

  std::vector<Slot> to_new(id_.size(), kNoSlot);
  for (Slot ns = 0; ns < order.size(); ++ns) to_new[order[ns]] = ns;

  // Gather every per-slot array into preorder; free slots are dropped (the
  // arena is compact afterwards and the free list starts empty).
  std::vector<NodeId> nid(live);
  std::vector<Slot> nparent(live);
  std::vector<std::uint32_t> ndepth(live);
  std::vector<Capacity> navail(live);
  std::vector<double> ny(live), nrecv(live);
  simd::AlignedVector<std::uint32_t> nin(live * stride_, 0);
  simd::AlignedVector<std::uint32_t> nlocal(live * stride_, 0);
  std::vector<std::vector<NodeId>> nchildren(live);
  for (Slot ns = 0; ns < order.size(); ++ns) {
    const Slot os = order[ns];
    nid[ns] = id_[os];
    nparent[ns] = parent_[os] == kNoSlot ? kNoSlot : to_new[parent_[os]];
    ndepth[ns] = depth_[os];
    navail[ns] = avail_[os];
    ny[ns] = y_[os];
    nrecv[ns] = recv_[os];
    std::copy_n(in_row(os), stride_, nin.data() + ns * stride_);
    std::copy_n(local_row(os), stride_, nlocal.data() + ns * stride_);
    nchildren[ns] = std::move(children_[os]);
    lookup_[nid[ns]] = ns;
  }
  id_ = std::move(nid);
  parent_ = std::move(nparent);
  depth_ = std::move(ndepth);
  avail_ = std::move(navail);
  y_ = std::move(ny);
  recv_ = std::move(nrecv);
  in_ = std::move(nin);
  local_ = std::move(nlocal);
  children_ = std::move(nchildren);
  free_.clear();
  bump_generation();
  deep_validate("renumber_dfs");
}

// ---- undo journal ---------------------------------------------------------

void MonitoringTree::begin_journal() {
  REMO_ASSERT(!journal_on_, "begin_journal is not re-entrant: ",
              journal_.size(), " record(s) already pending");
  journal_on_ = true;
}

void MonitoringTree::commit_journal() {
  journal_on_ = false;
  journal_.clear();
  jcounts_.clear();
  jnodes_.clear();
}

void MonitoringTree::rollback_journal() {
  journal_on_ = false;  // replay below mutates raw state, no re-recording
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
    const JournalEntry& e = *it;
    using K = JournalEntry::Kind;
    switch (e.kind) {
      case K::kLoads:
        std::copy_n(jcounts_.data() + e.counts, stride(), in_row(e.slot));
        y_[e.slot] = e.y;
        recv_[e.slot] = e.recv;
        break;
      case K::kLocal: {
        std::uint32_t* local = local_row(e.slot);
        collected_pairs_ -= row_sum(local, stride());
        std::copy_n(jcounts_.data() + e.counts, stride(), local);
        collected_pairs_ += row_sum(local, stride());
        break;
      }
      case K::kAvail:
        avail_[e.slot] = e.avail;
        break;
      case K::kDepth:
        depth_[e.slot] = e.depth;
        break;
      case K::kParent:
        parent_[e.slot] = e.parent;
        depth_[e.slot] = e.depth;
        break;
      case K::kChildInsert:
        children_[e.slot].erase(children_[e.slot].begin() + e.pos);
        break;
      case K::kChildErase:
        children_[e.slot].insert(children_[e.slot].begin() + e.pos, e.id);
        break;
      case K::kCreate:
        collected_pairs_ -= row_sum(local_row(e.slot), stride());
        lookup_[id_[e.slot]] = kNoSlot;
        id_[e.slot] = kNoNode;
        parent_[e.slot] = kNoSlot;
        children_[e.slot].clear();
        members_.erase(members_.begin() + e.pos);
        free_.push_back(e.slot);
        break;
      case K::kDestroy: {
        // LIFO discipline: the most recently freed slot is this one.
        REMO_ASSERT(!free_.empty() && free_.back() == e.slot,
                    "journal rollback out of order: expected slot ", e.slot,
                    " on top of the free list, found ",
                    free_.empty() ? -1 : static_cast<std::int64_t>(free_.back()));
        free_.pop_back();
        id_[e.slot] = e.id;
        parent_[e.slot] = e.parent;
        depth_[e.slot] = e.depth;
        avail_[e.slot] = e.avail;
        y_[e.slot] = e.y;
        recv_[e.slot] = e.recv;
        std::copy_n(jcounts_.data() + e.counts, stride(), in_row(e.slot));
        std::copy_n(jcounts_.data() + e.counts + stride(), stride(),
                    local_row(e.slot));
        children_[e.slot].assign(jnodes_.begin() + e.kids,
                                 jnodes_.begin() + e.kids + e.nkids);
        if (e.id >= lookup_.size()) lookup_.resize(e.id + 1, kNoSlot);
        lookup_[e.id] = e.slot;
        members_.insert(members_.begin() + e.pos, e.id);
        collected_pairs_ += row_sum(local_row(e.slot), stride());
        break;
      }
    }
  }
  journal_.clear();
  jcounts_.clear();
  jnodes_.clear();
  bump_generation();
  deep_validate("rollback_journal");
}

void MonitoringTree::jloads(Slot s) {
  if (!journal_on_) return;
  JournalEntry e;
  e.kind = JournalEntry::Kind::kLoads;
  e.slot = s;
  e.y = y_[s];
  e.recv = recv_[s];
  e.counts = jcounts_.size();
  jcounts_.insert(jcounts_.end(), in_row(s), in_row(s) + stride());
  journal_.push_back(e);
}

void MonitoringTree::jlocal(Slot s) {
  if (!journal_on_) return;
  JournalEntry e;
  e.kind = JournalEntry::Kind::kLocal;
  e.slot = s;
  e.counts = jcounts_.size();
  jcounts_.insert(jcounts_.end(), local_row(s), local_row(s) + stride());
  journal_.push_back(e);
}

void MonitoringTree::javail(Slot s) {
  if (!journal_on_) return;
  JournalEntry e;
  e.kind = JournalEntry::Kind::kAvail;
  e.slot = s;
  e.avail = avail_[s];
  journal_.push_back(e);
}

void MonitoringTree::jdepth(Slot s) {
  if (!journal_on_) return;
  JournalEntry e;
  e.kind = JournalEntry::Kind::kDepth;
  e.slot = s;
  e.depth = depth_[s];
  journal_.push_back(e);
}

void MonitoringTree::jparent(Slot s) {
  if (!journal_on_) return;
  JournalEntry e;
  e.kind = JournalEntry::Kind::kParent;
  e.slot = s;
  e.parent = parent_[s];
  e.depth = depth_[s];
  journal_.push_back(e);
}

void MonitoringTree::jchild_insert(Slot p) {
  if (!journal_on_) return;
  JournalEntry e;
  e.kind = JournalEntry::Kind::kChildInsert;
  e.slot = p;
  e.pos = static_cast<std::uint32_t>(children_[p].size() - 1);
  journal_.push_back(e);
}

void MonitoringTree::jchild_erase(Slot p, std::uint32_t pos, NodeId child) {
  if (!journal_on_) return;
  JournalEntry e;
  e.kind = JournalEntry::Kind::kChildErase;
  e.slot = p;
  e.pos = pos;
  e.id = child;
  journal_.push_back(e);
}

void MonitoringTree::jcreate(Slot s, std::uint32_t member_pos) {
  if (!journal_on_) return;
  JournalEntry e;
  e.kind = JournalEntry::Kind::kCreate;
  e.slot = s;
  e.pos = member_pos;
  journal_.push_back(e);
}

void MonitoringTree::jdestroy(Slot s, std::uint32_t member_pos) {
  if (!journal_on_) return;
  JournalEntry e;
  e.kind = JournalEntry::Kind::kDestroy;
  e.slot = s;
  e.parent = parent_[s];
  e.id = id_[s];
  e.pos = member_pos;
  e.depth = depth_[s];
  e.avail = avail_[s];
  e.y = y_[s];
  e.recv = recv_[s];
  e.counts = jcounts_.size();
  jcounts_.insert(jcounts_.end(), in_row(s), in_row(s) + stride());
  jcounts_.insert(jcounts_.end(), local_row(s), local_row(s) + stride());
  e.kids = jnodes_.size();
  e.nkids = static_cast<std::uint32_t>(children_[s].size());
  jnodes_.insert(jnodes_.end(), children_[s].begin(), children_[s].end());
  journal_.push_back(e);
}

// ---- validation -----------------------------------------------------------

bool MonitoringTree::validate() const {
  // Parent/child symmetry and acyclicity via BFS from the collector.
  std::size_t seen = 0;
  std::deque<NodeId> q{kCollectorId};
  std::vector<bool> visited(id_.size(), false);
  while (!q.empty()) {
    NodeId id = q.front();
    q.pop_front();
    if (!contains(id)) return false;
    const Slot s = lookup_[id];
    if (visited[s]) return false;  // cycle or duplicate child link
    visited[s] = true;
    ++seen;
    for (NodeId c : children_[s]) {
      if (!contains(c) || parent_[lookup_[c]] != s) return false;
      if (depth_[lookup_[c]] != depth_[s] + 1) return false;  // stale cache
      q.push_back(c);
    }
  }
  if (seen != members_.size() + 1) return false;  // unreachable vertices

  // Arena bookkeeping: members list matches live slots exactly, in some
  // order, without duplicates; free slots are dead; lookup is consistent.
  std::size_t live = 0, pairs = 0;
  for (Slot s = 0; s < id_.size(); ++s) {
    if (id_[s] == kNoNode) continue;
    ++live;
    if (id_[s] >= lookup_.size() || lookup_[id_[s]] != s) return false;
    if (s != kRootSlot) pairs += row_sum(local_row(s), stride());
  }
  if (live != members_.size() + 1) return false;
  for (NodeId n : members_)
    if (n == kCollectorId || !contains(n)) return false;
  for (Slot s : free_)
    if (s >= id_.size() || id_[s] != kNoNode) return false;
  if (pairs != collected_pairs_) return false;

  // Recompute in-counts bottom-up and check caches + capacity.
  for (Slot s = 0; s < id_.size(); ++s) {
    if (id_[s] == kNoNode) continue;
    std::vector<std::uint32_t> expect(local_row(s), local_row(s) + stride());
    double expect_recv = 0.0;
    for (NodeId c : children_[s]) {
      const Slot cs = lookup_[c];
      for (std::size_t m = 0; m < attrs_.size(); ++m)
        expect[m] += attrs_[m].funnel(in_row(cs)[m]);
      expect_recv += cost_.per_message + cost_.per_value * y_[cs];
    }
    if (!std::equal(expect.begin(), expect.end(), in_row(s))) return false;
    if (std::abs(weighted_out(in_row(s)) - y_[s]) > 1e-6) return false;
    if (std::abs(expect_recv - recv_[s]) > 1e-6) return false;
    if (usage(id_[s]) > avail_[s] + 1e-6) return false;
  }
  return true;
}

}  // namespace remo
