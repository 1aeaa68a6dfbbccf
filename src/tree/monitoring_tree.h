// A single monitoring tree (Sec. 2.3 / 3.2): the central collector (node 0)
// is the root; every member node periodically sends one update message to
// its parent carrying its locally observed values plus everything its
// children sent, for the attributes this tree delivers.
//
// Load model (Problem Statement 2, extended with funnels from Sec. 6.1):
//   in_i[m]  = local_i[m] + Σ_{p(j)=i} out_j[m]      per-metric value counts
//   out_i[m] = fnl^m(in_i[m])                        funnel-adjusted output
//   y_i      = Σ_m w_m · out_i[m]                    weighted payload
//   u_i      = C + a · y_i                           message (send) cost
//   usage_i  = u_i + Σ_{p(j)=i} u_j  ≤  avail_i      (collector: receive only)
// where w_m = freq_m / freq_max is the heterogeneous-update-frequency
// weight of Sec. 6.3 (1.0 for uniform frequencies).
//
// All mutating operations maintain these quantities incrementally and never
// leave the tree in a capacity-violating state: feasibility is checked
// before any change is applied.
//
// Storage is a flat slot arena in structure-of-arrays layout (DESIGN.md
// §10): per-vertex fields live in dense vectors indexed by slot, with a
// direct-indexed NodeId→slot table at the API edge, so the builder's hot
// queries (depth, slack, membership, feasibility walks) are pointer-free
// array reads. Consequences callers rely on:
//   - members() is a cached list in *insertion order* — iteration order is
//     a deterministic function of the operation sequence, never of hashing
//     (this is what makes equal-score parent ties in the builder
//     reproducible across platforms);
//   - feasibility walks and load propagation reuse per-tree scratch
//     buffers: const queries allocate nothing, but a single tree instance
//     must not be queried from two threads at once;
//   - an optional undo journal records reversible mutations between
//     begin_journal() and rollback_journal()/commit_journal(), so
//     composite operations (the adjuster's node-by-node reattach) roll
//     back by replaying inverses instead of deep-copying the tree.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/simd.h"
#include "common/types.h"
#include "cost/cost_model.h"
#include "tree/funnel.h"

namespace remo {

class MonitoringTree;

/// A borrowed per-metric count row (`in_counts` / `local_counts`): a view
/// into the owning tree's arena, invalidated by ANY subsequent mutation of
/// that tree (the arena reallocates and slots are recycled). Do not store
/// one across a mutating call — copy the values instead. The view captures
/// the tree's mutation generation; in debug and sanitizer builds
/// (REMO_DCHECK_ENABLED) every element access re-checks freshness, so a
/// stale dereference aborts with context instead of reading recycled
/// memory, and release builds skip the check. The layout is the same in
/// every build, so a caller compiled with a different NDEBUG from the
/// library's agrees with it on the object.
class CountSpan {
 public:
  CountSpan() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const std::uint32_t* data() const {
    check_fresh();
    return data_;
  }
  const std::uint32_t* begin() const {
    check_fresh();
    return data_;
  }
  const std::uint32_t* end() const {
    check_fresh();
    return data_ + size_;
  }
  std::uint32_t operator[](std::size_t i) const {
    check_fresh();
    REMO_DCHECK(i < size_, "index ", i, " >= size ", size_);
    return data_[i];
  }
  operator std::span<const std::uint32_t>() const {  // NOLINT(google-explicit-constructor)
    check_fresh();
    return {data_, size_};
  }

 private:
  friend class MonitoringTree;

  CountSpan(const std::uint32_t* data, std::size_t size,
            const MonitoringTree* owner, std::uint64_t generation) noexcept
      : data_(data), size_(size), owner_(owner), generation_(generation) {}
  void check_fresh() const;  // aborts via REMO_DCHECK when stale

  const std::uint32_t* data_ = nullptr;
  std::size_t size_ = 0;
  const MonitoringTree* owner_ = nullptr;
  std::uint64_t generation_ = 0;
};

/// One attribute delivered by a tree, with its funnel and frequency weight.
struct TreeAttrSpec {
  AttrId attr = 0;
  FunnelSpec funnel{AggType::kHolistic};
  double weight = 1.0;

  bool operator==(const TreeAttrSpec&) const = default;
};

/// Send period in epochs implied by a frequency weight w_m = freq_m/freq_max
/// (Sec. 6.3): round(1/w), at least 1. Shared by the simulator and the
/// collector-side liveness tracker so delivery deadlines agree on both ends.
std::uint64_t send_period(double weight) noexcept;

/// A node offered to a tree builder: its per-attribute local value counts
/// (aligned with the tree's attribute order) and the capacity allocated to
/// this tree.
struct BuildItem {
  NodeId id = kNoNode;
  std::vector<std::uint32_t> local;
  Capacity avail = 0;

  /// Total local values (unweighted).
  std::uint32_t local_total() const noexcept {
    std::uint32_t s = 0;
    for (auto v : local) s += v;
    return s;
  }
};

class MonitoringTree {
 public:
  MonitoringTree(std::vector<TreeAttrSpec> attrs, Capacity collector_avail,
                 CostModel cost);

  // ---- structure ----------------------------------------------------
  const std::vector<TreeAttrSpec>& attr_specs() const noexcept { return attrs_; }
  /// Attribute ids in tree order.
  std::vector<AttrId> attr_ids() const;
  std::size_t num_attrs() const noexcept { return attrs_.size(); }
  const CostModel& cost() const noexcept { return cost_; }
  /// Arena row width: num_attrs() padded up to simd::kU32Lanes so every
  /// count row is simd::kAlign-byte aligned (the DESIGN.md §15 layout
  /// contract). Padding elements are always zero.
  std::size_t row_stride() const noexcept { return stride_; }
  /// True iff every attribute has an identity funnel (holistic/distinct)
  /// and unit frequency weight — the dominant workload shape. Such trees
  /// take the O(1)-per-hop integer fast path in the feasibility and
  /// propagation walks (payload sums are exact integers in double, so the
  /// fast path is bit-identical to the general scalar one).
  bool uniform_identity() const noexcept { return uniform_identity_; }

  /// Pre-sizes the arena for `members` member nodes (one build's item
  /// count), avoiding incremental reallocation during construction. The
  /// count rows keep their alignment across growth either way — reserve
  /// only batches the copies.
  void reserve(std::size_t members);

  /// Renumbers the arena slots into DFS preorder (children in child-list
  /// order) and drops free slots. Ancestor walks then touch monotonically
  /// decreasing nearby slots — prefetch-friendly after a build. Purely an
  /// internal relayout: NodeIds, iteration orders (members()/children())
  /// and all load state are unchanged, so plans are unaffected. Must not
  /// be called while journaling (the undo log records slot numbers).
  void renumber_dfs();

  bool contains(NodeId id) const noexcept {
    return id < lookup_.size() && lookup_[id] != kNoSlot;
  }
  /// Member monitoring nodes (excludes the collector), in insertion order.
  /// The list is stable: attach appends, detach erases in place, moves keep
  /// positions — iteration order never depends on node-id hashing.
  const std::vector<NodeId>& members() const noexcept { return members_; }
  /// Number of member monitoring nodes (excludes the collector).
  std::size_t size() const noexcept { return members_.size(); }
  bool empty() const noexcept { return members_.empty(); }

  NodeId parent(NodeId id) const;
  const std::vector<NodeId>& children(NodeId id) const;
  /// Depth of `id`; the collector has depth 0. Cached, O(1).
  std::size_t depth(NodeId id) const;
  /// Max depth over members (0 for an empty tree).
  std::size_t height() const;
  /// `r` plus all its descendants, in BFS order.
  std::vector<NodeId> branch_nodes(NodeId r) const;
  /// The same list written into `out` (cleared first), so hot callers can
  /// reuse one buffer instead of allocating per call.
  void branch_nodes(NodeId r, std::vector<NodeId>& out) const;
  /// True iff `id` is in the subtree rooted at `r` (inclusive).
  bool in_subtree(NodeId id, NodeId r) const;

  // ---- loads ---------------------------------------------------------
  /// Weighted payload y_i of the message `id` sends (0 for the collector).
  double payload(NodeId id) const;
  /// Send cost u_i = C + a·y_i (0 for the collector, which sends nothing).
  Capacity send_cost(NodeId id) const;
  /// usage_i = u_i + Σ_{children j} u_j; collector: Σ u_j only.
  Capacity usage(NodeId id) const;
  Capacity avail(NodeId id) const;
  Capacity slack(NodeId id) const { return avail(id) - usage(id); }
  /// Re-caps a vertex's capacity allocation (used by the adaptive planner
  /// to bind in-place patches to the node's *global* remaining budget).
  /// Contract (REMO_ASSERT): never below current usage — that would
  /// invalidate the tree.
  void set_avail(NodeId id, Capacity avail);
  /// Per-metric incoming counts (aligned with attr_specs()). The returned
  /// view is invalidated by any mutation; see CountSpan.
  CountSpan in_counts(NodeId id) const;
  /// Per-metric outgoing counts out_i[m] = fnl^m(in_i[m]).
  std::vector<std::uint32_t> out_counts(NodeId id) const;
  /// Local (x_i) per-metric counts. View semantics as in_counts().
  CountSpan local_counts(NodeId id) const;
  /// Total local values over members: the node-attribute pairs this tree
  /// collects (the planner's objective contribution). Cached, O(1).
  std::size_t collected_pairs() const noexcept { return collected_pairs_; }
  /// Σ_i u_i over members: total message volume per unit time (C_cur /
  /// C_adj in the Sec. 4.2 throttle formula). Summed in member insertion
  /// order (deterministic). Memoized on a dirty flag — the planner's
  /// scoring loop re-reads it for every kept entry of every candidate —
  /// and safe to call concurrently on a shared const tree (the cache is a
  /// pair of relaxed/acq-rel atomics; racing recomputations store the same
  /// bits).
  Capacity total_cost() const;
  /// One message per member per unit time.
  std::size_t total_messages() const noexcept { return size(); }

  /// Calls `f(NodeId, Capacity usage)` for the collector and then every
  /// member in insertion order — equivalent to calling usage(id) for each,
  /// with the NodeId→slot lookups hoisted out of the caller's loop. This
  /// is the accumulation kernel behind the planner's per-candidate usage
  /// charging (planner/topology.cpp); the per-node values and visit order
  /// are exactly those of the naive loop, so accumulations over it are
  /// bit-identical.
  template <class F>
  void for_each_usage(F&& f) const {
    f(kCollectorId, recv_[kRootSlot]);
    for (NodeId n : members_) {
      const Slot s = lookup_[n];
      f(n, cost_.per_message + cost_.per_value * y_[s] + recv_[s]);
    }
  }

  // ---- mutation --------------------------------------------------------
  /// Can `item` be attached under `parent` without violating any capacity?
  /// On failure and if `blocker` is non-null, stores the first node whose
  /// constraint would be violated (a "congested node", Definition 4).
  bool can_attach(const BuildItem& item, NodeId parent,
                  NodeId* blocker = nullptr) const;

  /// Batched attach feasibility for one fixed item (REMO_HOT: the builder's
  /// parent scan asks can_attach(item, v) for *every* vertex of the tree).
  /// On uniform-identity trees the walk's per-hop predicates depend on the
  /// item only through two constants (its message cost and its out total),
  /// so the scan evaluates them for every slot in one O(slots) pass — the
  /// per-slot checks use the exact expressions of feasible_walk_identity,
  /// so each query returns the same boolean and the same blocker, bit for
  /// bit — and each can_attach() query is then O(1). The pass runs on the
  /// first query about a member: constructing the scan and asking about
  /// the collector alone cost O(1). Non-identity trees fall back to the
  /// per-candidate walk transparently.
  /// The scan borrows tree scratch: it is invalidated by any mutation of
  /// the tree and at most one scan per tree may be live at a time.
  class AttachScan {
   public:
    bool can_attach(NodeId parent, NodeId* blocker = nullptr) const;
    /// True when every query fails because of the item itself: it is
    /// already a member, or it cannot afford its own message (blocker =
    /// the item's id). Such answers say nothing about the tree, nor about
    /// other items with the same demand_signature().
    bool fails_on_item() const noexcept { return item_member_ || self_fail_; }

   private:
    friend class MonitoringTree;
    AttachScan(const MonitoringTree& tree, const BuildItem& item);
    const MonitoringTree* tree_;
    const BuildItem* item_;
    Capacity child_u_ = 0;      // the item's message cost C + a·y
    bool fast_ = false;         // identity masks apply; else walk fallback
    mutable bool masks_built_ = false;  // on the first member query
    bool item_member_ = false;  // item.id already in the tree: always false
    bool self_fail_ = false;    // item cannot afford its own message
    std::uint64_t generation_ = 0;  // checked under REMO_DCHECK_ENABLED
  };
  AttachScan attach_scan(const BuildItem& item) const {
    return AttachScan(*this, item);
  }

  /// Everything an AttachScan reads from an item apart from its id and its
  /// own budget: the local row total on uniform-identity trees (the fast
  /// path reads only u = C + a·total and total), the full local row
  /// otherwise. Scans of one tree state give two items with equal
  /// signatures the same answers and the same blockers, unless a scan
  /// fails_on_item(). `row` borrows the item's local counts.
  struct DemandSignature {
    std::uint64_t total = 0;
    std::span<const std::uint32_t> row;  // empty on uniform-identity trees

    bool operator==(const DemandSignature& o) const noexcept {
      return total == o.total &&
             std::equal(row.begin(), row.end(), o.row.begin(), o.row.end());
    }
  };
  DemandSignature demand_signature(const BuildItem& item) const noexcept {
    const std::uint64_t total = simd::sum_u32(item.local.data(), item.local.size());
    if (uniform_identity_) return {total, {}};
    return {total, item.local};
  }
  /// The parent-hop check an AttachScan of a uniform-identity item with
  /// value total `total` evaluates at vertex `v`: true iff hanging that
  /// item's message under `v` overloads `v` itself (for the collector, its
  /// receive budget). Monotone in `total`. When the check passes at the
  /// collector, the blockers such a scan reports over the members are
  /// exactly the members where it fails (DESIGN.md §15) — the builder's
  /// collector-first construction records them with this check instead of
  /// a scan.
  bool parent_hop_fails(NodeId v, std::uint64_t total) const;
  /// Attach; aborts the process if infeasible (callers check first).
  void attach(const BuildItem& item, NodeId parent);
  /// Fused feasibility-test + attach: performs the upward feasibility walk
  /// once and applies the attachment on success (false, tree unchanged, on
  /// failure). Equivalent to `can_attach(...) && (attach(...), true)` at
  /// half the walking cost — the builder's commit path.
  bool try_attach(const BuildItem& item, NodeId parent,
                  NodeId* blocker = nullptr);

  /// Re-parents branch `r` under the first of `targets` that can take it,
  /// and returns that target's index; returns targets.size() if none can.
  /// A target is skipped without a test when it is absent, inside the
  /// branch, or already r's parent. The branch is unlinked once, before
  /// the first tested target, and every test is the non-mutating
  /// feasibility walk. If no tested target fits, `r` is relinked under its
  /// old parent at the BACK of that parent's child list — loads are
  /// restored (bit for bit under exact arithmetic), but the child order
  /// has changed, and child order is plan state (restore_iteration_order).
  /// If no target was tested, nothing changes. Equivalent to calling
  /// move_branch(r, t) for each target in order until one succeeds.
  std::size_t move_branch_first(NodeId r, std::span<const NodeId> targets);
  /// A reattach target with its rank key: targets rank by descending key,
  /// ties by ascending id (the adjusting procedure keys them by slack).
  using RankedTarget = std::pair<Capacity, NodeId>;
  /// move_branch_first over `targets` sorted into rank order, without
  /// sorting the targets that cannot take the branch at their own hop. On
  /// uniform-identity trees the unlink moves the loads of r's old parent
  /// and its ancestors only, so any other target reads the same loads at
  /// the first hop of its feasibility walk (hop_fails) before the unlink
  /// as after it. A target that fails that hop fails its test and is left
  /// unsorted; the move is first-fit over the sorted rest. Returns the
  /// number of targets ranked above the one that took the branch (the
  /// index move_branch_first returns on the sorted list), or
  /// targets.size() if none did. The tree ends bit for bit as that call
  /// leaves it: a testable target left unsorted still counts as a failed
  /// test, so r goes to the back of its parent's child list if nothing
  /// fits. Reorders `targets`.
  std::size_t move_branch_ranked(NodeId r, std::span<RankedTarget> targets);
  /// Re-parent branch `r` under `new_parent`: move_branch_first with one
  /// target. Returns false if the move is illegal (tree unchanged) or
  /// infeasible (r moved to the back of its parent's child list).
  bool move_branch(NodeId r, NodeId new_parent) {
    return move_branch_first(r, {&new_parent, 1}) == 0;
  }

  /// Remove the branch rooted at `r`; returns the removed nodes as build
  /// items (BFS order: parents before children).
  std::vector<BuildItem> detach_branch(NodeId r);

  /// Can member `id`'s local counts be replaced by `new_local` without
  /// violating any capacity (decreases are always feasible)?
  bool can_update_local(NodeId id, const std::vector<std::uint32_t>& new_local) const;
  /// Replace member `id`'s local counts in place, keeping its position and
  /// children (the minimal-change operation behind DIRECT-APPLY task
  /// updates). Returns false — tree unchanged — if infeasible.
  bool update_local(NodeId id, const std::vector<std::uint32_t>& new_local);

  // ---- snapshot/restore (service/snapshot.h, DESIGN.md §14) ------------
  /// Permutes the member list and the given vertices' child lists into the
  /// supplied orders (each must be a permutation of the current one).
  /// Iteration order is plan-affecting state — members() drives the
  /// builder's deterministic tie-breaks and children() drives BFS walks —
  /// so a tree rebuilt from a snapshot must reproduce the captured order
  /// bit-exactly, not merely the same structure. Vertices without an entry
  /// in `children` keep their current child order.
  void restore_iteration_order(
      const std::vector<NodeId>& members,
      const std::vector<std::pair<NodeId, std::vector<NodeId>>>& children);

  // ---- undo journal ----------------------------------------------------
  /// Start recording reversible mutations. While journaling, every mutating
  /// operation appends inverse records; rollback_journal() replays them in
  /// reverse, restoring the tree bit-exactly — including member-list and
  /// child-list ordering — as if the operations never ran. Not re-entrant.
  void begin_journal();
  /// Accept the journaled mutations and drop the records.
  void commit_journal();
  /// Revert every mutation since begin_journal().
  void rollback_journal();
  bool journaling() const noexcept { return journal_on_; }

  /// Exhaustive invariant re-check (for tests and the REMO_VALIDATE deep
  /// hooks): recomputes counts bottom-up and verifies cached values,
  /// parent/child symmetry, acyclicity, arena bookkeeping (lookup table,
  /// member list, free list), and capacity constraints. Returns false on
  /// any violation.
  bool validate() const;

  /// Mutation counter backing the CountSpan and AttachScan staleness
  /// checks (armed in debug/sanitizer builds): bumped by every operation
  /// that changes tree state.
  std::uint64_t debug_generation() const noexcept { return generation_; }

 private:
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = 0xffffffffu;
  static constexpr Slot kRootSlot = 0;

  /// Padded row width (see row_stride()). Cached at construction — never
  /// recompute per hop inside a walk.
  std::size_t stride() const noexcept { return stride_; }
  std::uint32_t* in_row(Slot s) noexcept { return in_.data() + s * stride_; }
  const std::uint32_t* in_row(Slot s) const noexcept {
    return in_.data() + s * stride_;
  }
  std::uint32_t* local_row(Slot s) noexcept { return local_.data() + s * stride_; }
  const std::uint32_t* local_row(Slot s) const noexcept {
    return local_.data() + s * stride_;
  }

  Slot slot_of(NodeId id) const;           // throws std::out_of_range if absent
  /// in_subtree on slots: walks up from `s` only to `r`'s cached depth.
  bool slot_in_subtree(Slot s, Slot r) const noexcept;
  Slot alloc_slot();                       // from the free list, or grows arena
  double weighted_out(const std::uint32_t* in) const;

  /// Invalidate outstanding CountSpans and AttachScans (checked in debug
  /// builds) and the memoized total_cost(). Every mutating operation calls
  /// this before returning.
  void bump_generation() noexcept {
    cost_cache_.valid.store(false, std::memory_order_relaxed);
    ++generation_;
  }
  /// Deep-validation hook: every mutating operation funnels through this
  /// before returning, so under REMO_VALIDATE=1 an invariant break aborts
  /// at the operation that introduced it, not at some later read.
  void deep_validate(const char* op) const {
    REMO_VALIDATE(validate(), "MonitoringTree invariants broken after ", op);
  }

  /// Feasibility walk for adding count-delta `delta` (pre-loaded into
  /// `walk_delta_`) as recv_delta of new receive cost under `parent`.
  /// Simulates the upward propagation without mutating.
  bool feasible_walk_scratch(Slot parent, Capacity recv_delta,
                             NodeId* blocker) const;
  /// Uniform-identity fast path of the walk above: out deltas equal in
  /// deltas at every hop, so the payload change is the constant `dsum`
  /// (= Σ walk_delta_, an exact integer) and each hop is O(1). `changed`
  /// is whether any per-attribute delta is nonzero (dsum can be zero with
  /// cancelling deltas — the walk must still continue then).
  bool feasible_walk_identity(Slot parent, Capacity recv_delta, double dsum,
                              bool changed, NodeId* blocker) const;
  /// Feasibility walk for a new child message with out-vector `child_out`
  /// and cost `child_u` joining `parent`.
  bool feasible_add(Slot parent, const std::uint32_t* child_out, double child_u,
                    NodeId* blocker) const;

  /// The parent-hop predicate of feasible_walk_identity at slot `q` for a
  /// child message of cost `child_u` whose payload costs `pvd` = a·total
  /// at every hop (the collector's check reads only its receive load). The
  /// one copy of the expression: the attach masks, the scan's collector
  /// query and parent_hop_fails() all call it.
  bool hop_fails(Slot q, Capacity child_u, Capacity pvd) const noexcept;
  /// Fills the attach-scan masks for `item` (uniform-identity trees only):
  /// per-slot parent-hop and ancestor-hop predicate results plus each
  /// slot's nearest failing ancestor, using the identity walk's verbatim
  /// expressions so AttachScan queries reproduce the walk bit for bit.
  void build_attach_masks(const BuildItem& item, Capacity child_u) const;

  /// Apply the upward propagation of delta (pre-loaded into `walk_delta_`)
  /// to `parent`'s in-counts plus follow-on payload changes.
  void propagate_scratch(Slot parent);
  /// Signed upward propagation of a child message joining (+1) or leaving
  /// (-1) `parent`.
  void propagate(Slot parent, const std::uint32_t* child_out, int sign);

  /// Unlink branch root `r` from its parent and subtract its message from
  /// the ancestor loads (shared by move/detach). `out` is r's out-vector.
  void unlink(Slot r, const std::uint32_t* out, Capacity u);
  /// Inverse of unlink: appends `r` to `parent`'s child list and adds its
  /// message to the loads. Does not touch parent_[r] or depths.
  void relink(Slot r, Slot parent, const std::uint32_t* out, Capacity u);
  /// The first-fit loop of move_branch_first and move_branch_ranked: tries
  /// target(0) … target(n-1) in order and re-parents branch `rs` under the
  /// first that fits, returning its position, or n. Absent targets, rs's
  /// parent and the branch's own vertices are skipped untested. The branch
  /// is unlinked once, before the first test; if nothing fits it is
  /// relinked at the back of its parent's child list — also when no
  /// listed target was tested but `tested_elsewhere()` is true.
  template <class TargetAt, class TestedElsewhere>
  std::size_t first_fit(Slot rs, std::size_t n, TargetAt target,
                        TestedElsewhere tested_elsewhere);

  // -- journal helpers (no-ops unless journal_on_) --
  void jloads(Slot s);                      // snapshot (in row, y, recv)
  void jlocal(Slot s);                      // snapshot local row
  void javail(Slot s);
  void jdepth(Slot s);
  void jparent(Slot s);                     // snapshot (parent, depth)
  void jchild_insert(Slot p);               // child was appended to p
  void jchild_erase(Slot p, std::uint32_t pos, NodeId child);
  void jcreate(Slot s, std::uint32_t member_pos);
  void jdestroy(Slot s, std::uint32_t member_pos);

  std::vector<TreeAttrSpec> attrs_;
  CostModel cost_;
  std::size_t stride_ = 0;          // num_attrs padded to simd::kU32Lanes
  bool uniform_identity_ = false;   // see uniform_identity()

  // Arena (structure of arrays, indexed by slot; slot 0 = collector).
  // Count rows live in kAlign-aligned storage with padded strides so every
  // row starts on a cache-line boundary and vector loops need no tail.
  std::vector<NodeId> id_;          // kNoNode marks a free slot
  std::vector<Slot> parent_;        // kNoSlot for the root and free slots
  std::vector<std::uint32_t> depth_;
  std::vector<Capacity> avail_;
  std::vector<double> y_;           // cached weighted payload
  std::vector<double> recv_;        // cached Σ_{children c} u_c
  simd::AlignedVector<std::uint32_t> in_;  // stride_-flattened per-metric counts
  simd::AlignedVector<std::uint32_t> local_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<Slot> free_;          // LIFO recycled slots
  std::vector<Slot> lookup_;        // NodeId -> slot, direct-indexed
  std::vector<NodeId> members_;     // insertion-ordered live members
  std::size_t collected_pairs_ = 0;

  // Reusable walk scratch: const queries allocate nothing per ancestor hop.
  // Sized stride_ with always-zero padding, like the arena rows.
  mutable simd::AlignedVector<std::int64_t> walk_delta_, walk_next_;
  mutable simd::AlignedVector<std::uint32_t> out_scratch_;

  // Attach-scan masks (AttachScan): per-slot predicate results for one
  // fixed item. pfail = the parent-hop check fails at this member slot
  // (the collector's is answered without the masks); afail =
  // the ancestor-hop check fails; anc_blocker = nearest vertex on the
  // slot's root path (inclusive) whose ancestor-hop check fails, kNoNode
  // if the whole chain passes.
  mutable std::vector<std::uint8_t> scan_pfail_, scan_afail_, scan_done_;
  mutable std::vector<NodeId> scan_anc_blocker_;
  // Slot stack shared by the attach-mask chase, move_branch_ranked's root
  // path and first_fit's depth shift (none is live while another runs).
  mutable std::vector<Slot> slot_stack_;
  mutable bool scan_skip_anc_ = false;

  /// Memoized total_cost(). Copyable atomic pair: trees are copied freely
  /// (topology entries, build-cache hits) but may also be *read* from
  /// several scoring threads at once — racing recomputations of an
  /// unchanged tree store identical bits, the acq-rel flag orders them.
  struct CostCache {
    std::atomic<double> value{0.0};
    std::atomic<bool> valid{false};
    CostCache() = default;
    CostCache(const CostCache& o) noexcept
        : value(o.value.load(std::memory_order_relaxed)),
          valid(o.valid.load(std::memory_order_acquire)) {}
    CostCache& operator=(const CostCache& o) noexcept {
      value.store(o.value.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      valid.store(o.valid.load(std::memory_order_acquire),
                  std::memory_order_release);
      return *this;
    }
  };
  mutable CostCache cost_cache_;

  // Undo journal.
  struct JournalEntry {
    enum class Kind : std::uint8_t {
      kLoads, kLocal, kAvail, kDepth, kParent, kChildInsert, kChildErase,
      kCreate, kDestroy,
    };
    Kind kind;
    Slot slot = kNoSlot;
    Slot parent = kNoSlot;
    NodeId id = kNoNode;
    std::uint32_t pos = 0;
    std::uint32_t depth = 0;
    double y = 0.0, recv = 0.0, avail = 0.0;
    std::size_t counts = 0;  // offset into jcounts_
    std::size_t kids = 0;    // offset into jnodes_
    std::uint32_t nkids = 0;
  };
  bool journal_on_ = false;
  std::vector<JournalEntry> journal_;
  std::vector<std::uint32_t> jcounts_;  // pooled count-row snapshots
  std::vector<NodeId> jnodes_;          // pooled children-list snapshots

  std::uint64_t generation_ = 0;  // see debug_generation()
};

inline void CountSpan::check_fresh() const {
#if REMO_DCHECK_ENABLED
  REMO_DCHECK(owner_ == nullptr || generation_ == owner_->debug_generation(),
              "stale CountSpan: tree mutated since the view was taken "
              "(view generation=", generation_,
              " tree generation=", owner_ ? owner_->debug_generation() : 0,
              ") — copy in_counts()/local_counts() before mutating");
#endif
}

}  // namespace remo
