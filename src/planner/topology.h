// A monitoring topology: the forest of monitoring trees the planner
// produces for one attribute partition, with global per-node capacity
// accounting across trees (a node may appear in several trees, Sec. 2.3).
#pragma once

#include <cstddef>
#include <vector>

#include "cost/system_model.h"
#include "partition/partition.h"
#include "planner/attr_specs.h"
#include "task/pair_set.h"
#include "tree/builder.h"
#include "tree/monitoring_tree.h"

namespace remo {

class TreeBuildCache;

/// How a node's capacity is divided among the trees it participates in
/// (Sec. 5.2). All schemes are additionally hard-capped by the node's
/// remaining capacity so the global constraint Σ_k usage_k(i) ≤ b_i holds
/// no matter what the advisory share says.
enum class AllocationScheme : std::uint8_t {
  kUniform,       ///< equal share per candidate tree
  kProportional,  ///< share proportional to the tree's candidate-set size
  kOnDemand,      ///< all remaining capacity, trees built in given order
  kOrdered,       ///< on-demand, trees built smallest candidate set first
};

const char* to_string(AllocationScheme s) noexcept;

struct TreeEntry {
  std::vector<AttrId> attrs;  // sorted; the partition set this tree delivers
  MonitoringTree tree;
  std::size_t offered_pairs = 0;    // pairs candidates could contribute
  std::size_t collected_pairs = 0;  // pairs actually included
};

/// A (child -> parent) monitoring link; the same link may exist in several
/// trees, hence the multiset semantics in edge-diff accounting.
struct TopologyEdge {
  NodeId child = kNoNode;
  NodeId parent = kNoNode;
  friend constexpr bool operator==(const TopologyEdge&, const TopologyEdge&) = default;
  friend constexpr auto operator<=>(const TopologyEdge&, const TopologyEdge&) = default;
};

class Topology {
 public:
  Topology() = default;

  const std::vector<TreeEntry>& entries() const noexcept { return entries_; }
  std::vector<TreeEntry>& mutable_entries() noexcept { return entries_; }
  std::size_t num_trees() const noexcept { return entries_.size(); }

  std::size_t total_pairs() const noexcept { return total_pairs_; }
  void set_total_pairs(std::size_t n) noexcept { total_pairs_ = n; }

  std::size_t collected_pairs() const;
  /// Fraction of requested node-attribute pairs delivered to the collector
  /// — the evaluation metric of Sec. 7 ("percentage of collected values").
  double coverage() const;
  /// Σ over trees of Σ member send costs: monitoring message volume per
  /// unit time (C_cur / C_adj in the Sec. 4.2 throttle).
  Capacity total_cost() const;
  std::size_t total_messages() const;

  /// Node's combined usage across all trees (including the collector's).
  Capacity node_usage(NodeId id) const;
  /// b_i minus combined usage — the on-demand budget for a (re)build.
  Capacity remaining(NodeId id, const SystemModel& system) const;

  /// The attribute partition implied by the entries.
  Partition partition() const;

  /// All (child -> parent) links over all trees, sorted (multiset).
  std::vector<TopologyEdge> edges() const;

  /// Every tree satisfies its capacity constraints and global per-node
  /// usage never exceeds system capacity.
  bool validate(const SystemModel& system) const;

 private:
  std::vector<TreeEntry> entries_;
  std::size_t total_pairs_ = 0;
};

/// Number of links that must be torn down or established to turn `before`
/// into `after` (multiset symmetric difference of edges) — the adaptation
/// message volume M_adapt of Sec. 4.2.
std::size_t edge_diff(const Topology& before, const Topology& after);

/// The identities of the pairs a topology collects: every (member node,
/// attribute) with a nonzero local count, over all trees, sorted by
/// (node, attr). Because the trees' attribute sets partition the universe
/// the list is duplicate-free; its size equals collected_pairs(). This is
/// the per-shard stream the federation root merges (src/federation), and
/// the byte-comparable ground truth behind the K=1 equivalence tests.
/// Attribute ids are raw (reliability replicas keep their alias ids).
std::vector<NodeAttrPair> collected_pairs_of(const Topology& topo);

/// Build the complete forest for `partition`. Tree build order follows the
/// allocation scheme (kOrdered builds the largest candidate sets first).
/// Every build reads its members and local counts from `cache`'s items
/// template for its attribute set (see tree_build_cache.h).
Topology build_topology(const SystemModel& system, const PairSet& pairs,
                        const Partition& partition, const AttrSpecTable& specs,
                        AllocationScheme allocation, const TreeBuildOptions& tree_opts,
                        TreeBuildCache& cache);

/// The (collected pairs, cost) score of a rebuilt topology.
struct RebuildScore {
  std::size_t collected = 0;
  Capacity cost = 0;
};

/// Reusable buffers of one (re)build. The evaluator keeps one per scoring
/// task and reuses it across every candidate of a dispatch block, so the
/// hot scoring path stops re-allocating its per-call vectors. The buffers
/// are fully overwritten on every call, so which scratch a call gets never
/// changes its result.
struct RebuildScratch {
  std::vector<std::size_t> victims;  // sorted
  std::vector<std::size_t> kept;     // entry indices that survive, in order
  std::vector<std::vector<AttrId>> all_sets;
  std::vector<Capacity> usage;
  std::vector<Capacity> remaining;
  std::vector<std::size_t> new_sizes;
  std::vector<std::size_t> order;  // new-set indices in build order
  std::vector<TreeAttrSpec> tree_attrs;
  std::vector<BuildItem> items;
};

/// The rebuild step (the resource-aware evaluation of Sec. 3.2: "builds
/// trees for nodes affected by m"): replaces the trees at
/// `victim_indices` with trees for `new_sets`, without assembling the
/// result. Budgets are the nodes' remaining capacity with the victims
/// removed, floored at 0 and advisory-capped per `allocation`. Each new
/// tree is built once and handed over in `new_trees` (cleared first), in
/// build order; the returned score is the assembled topology's, with the
/// cost summed in its entry order (kept entries, then `new_trees`), so it
/// is bit-identical to score_of(assemble_rebuild(...)). `topo` itself is
/// untouched.
RebuildScore rebuild_score(const Topology& topo, const SystemModel& system,
                           const PairSet& pairs,
                           const std::vector<std::size_t>& victim_indices,
                           const std::vector<std::vector<AttrId>>& new_sets,
                           const AttrSpecTable& specs, AllocationScheme allocation,
                           const TreeBuildOptions& tree_opts, TreeBuildCache& cache,
                           RebuildScratch& scratch, std::vector<TreeEntry>& new_trees);

/// The topology a rebuild_score call scored: `topo`'s entries outside
/// `victim_indices`, in order, then `new_trees` in build order.
Topology assemble_rebuild(const Topology& topo,
                          const std::vector<std::size_t>& victim_indices,
                          std::vector<TreeEntry> new_trees, std::size_t total_pairs);

/// rebuild_score plus assembly: the modified topology.
Topology rebuild_trees(const Topology& topo, const SystemModel& system,
                       const PairSet& pairs, const std::vector<std::size_t>& victim_indices,
                       const std::vector<std::vector<AttrId>>& new_sets,
                       const AttrSpecTable& specs, AllocationScheme allocation,
                       const TreeBuildOptions& tree_opts, TreeBuildCache& cache);

}  // namespace remo
