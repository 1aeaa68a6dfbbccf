#include "planner/topology.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/sorted_vector.h"
#include "planner/tree_build_cache.h"

namespace remo {

namespace {

/// Advisory-share bookkeeping for UNIFORM / PROPORTIONAL allocation
/// (Sec. 5.2), computed over the full target partition.
struct ShareInfo {
  std::vector<std::uint32_t> tree_count;  // per node: #trees it belongs to
  std::vector<double> size_sum;           // per node: Σ |D_k| over its trees
  std::vector<std::size_t> tree_size;     // per tree (in `sets` order): |D_k|
  std::size_t total_trees = 0;
  double total_size = 0.0;
  double min_message_cost = 0.0;  // C + a: the smallest useful message
};

ShareInfo compute_shares(const SystemModel& system, const PairSet& pairs,
                         const std::vector<std::vector<AttrId>>& sets) {
  ShareInfo info;
  const std::size_t nv = system.num_vertices();
  info.tree_count.assign(nv, 0);
  info.size_sum.assign(nv, 0.0);
  info.tree_size.resize(sets.size());
  info.total_trees = sets.size();
  info.min_message_cost = system.cost().message_cost(1);
  for (std::size_t k = 0; k < sets.size(); ++k) {
    const auto nodes = pairs.nodes_with_any(sets[k]);
    info.tree_size[k] = nodes.size();
    info.total_size += static_cast<double>(nodes.size());
    for (NodeId n : nodes) {
      ++info.tree_count[n];
      info.size_sum[n] += static_cast<double>(nodes.size());
    }
  }
  return info;
}

/// Whether the forest is being laid out from scratch or locally rebuilt
/// around a partition-augmentation / task-update operation.
enum class BuildPass : std::uint8_t { kInitial, kRebuild };

Capacity advisory_share(AllocationScheme scheme, NodeId node, Capacity budget,
                        const ShareInfo& info, std::size_t tree_idx,
                        BuildPass pass) {
  // The collector belongs to *every* tree. Under demand-driven allocation
  // its budget is asymmetric by design:
  //   - initial build: an even advisory split (floored at one minimal
  //     message) — otherwise the first-built tree attaches every node
  //     directly under the collector (the Fig. 4a star-collection
  //     pathology) and starves the rest of the forest;
  //   - rebuild: the remaining capacity — the victims of the operation
  //     released their usage, and the rebuilt tree must be able to inherit
  //     it, or merges could never consolidate collector capacity.
  // Monitoring nodes follow the Sec. 5.2 scheme in both passes.
  const bool demand_driven = scheme == AllocationScheme::kOnDemand ||
                             scheme == AllocationScheme::kOrdered;
  if (node == kCollectorId) {
    if (demand_driven && pass == BuildPass::kRebuild)
      return std::numeric_limits<Capacity>::infinity();
    const double t = static_cast<double>(info.total_trees);
    if (t <= 0) return budget;
    return std::max(budget / t, info.min_message_cost);
  }
  switch (scheme) {
    case AllocationScheme::kUniform: {
      const double t = static_cast<double>(info.tree_count[node]);
      return t > 0 ? std::max(budget / t, info.min_message_cost) : budget;
    }
    case AllocationScheme::kProportional: {
      const double sum = info.size_sum[node];
      if (sum <= 0) return budget;
      return std::max(budget * static_cast<double>(info.tree_size[tree_idx]) / sum,
                      info.min_message_cost);
    }
    case AllocationScheme::kOnDemand:
    case AllocationScheme::kOrdered:
      return std::numeric_limits<Capacity>::infinity();
  }
  return budget;
}

/// What every tree build of one forest (re)build shares.
struct BuildContext {
  const SystemModel& system;
  const PairSet& pairs;
  const AttrSpecTable& specs;
  const TreeBuildOptions& tree_opts;
  AllocationScheme scheme;
  const ShareInfo& shares;
  BuildPass pass;
  TreeBuildCache& cache;
};

// REMO_HOT: once per (re)built tree per candidate scored — the inner loop
// of the guided search. The one build step of every tree, laid out
// (build_topology) or rebuilt (rebuild_score). Fills the tree's attribute
// specs and offered items with their effective budgets (capped by
// `sc.remaining`) into `sc` — the member list and local counts come from
// the cache's items template, computed once per attribute set — and
// builds the tree.
TreeEntry build_entry(const BuildContext& ctx, const std::vector<AttrId>& attrs,
                      std::size_t tree_idx, RebuildScratch& sc) {
  sc.tree_attrs.clear();
  sc.tree_attrs.reserve(attrs.size());
  for (AttrId a : attrs) sc.tree_attrs.push_back(ctx.specs.tree_spec(a));

  const auto* t = ctx.cache.items_template(attrs, ctx.pairs);
  sc.items.clear();
  sc.items.resize(t->nodes.size());
  for (std::size_t i = 0; i < t->nodes.size(); ++i) {
    const NodeId n = t->nodes[i];
    BuildItem& item = sc.items[i];
    item.id = n;
    const auto row = t->local.begin() + static_cast<std::ptrdiff_t>(i * attrs.size());
    item.local.assign(row, row + static_cast<std::ptrdiff_t>(attrs.size()));
    item.avail = std::min(sc.remaining[n],
                          advisory_share(ctx.scheme, n, ctx.system.capacity(n),
                                         ctx.shares, tree_idx, ctx.pass));
  }
  const Capacity collector_avail = std::min(
      sc.remaining[kCollectorId],
      advisory_share(ctx.scheme, kCollectorId, ctx.system.capacity(kCollectorId),
                     ctx.shares, tree_idx, ctx.pass));

  auto result = build_tree(std::move(sc.tree_attrs), std::move(sc.items),
                           collector_avail, ctx.system.cost(), ctx.tree_opts);
  TreeEntry entry{attrs, std::move(result.tree), t->offered, 0};
  entry.collected_pairs = entry.tree.collected_pairs();
  return entry;
}

// REMO_HOT: runs once per built tree on every candidate scored.
// for_each_usage streams the slot arrays directly instead of paying a
// lookup per member; the per-node arithmetic is the usage() expression
// verbatim, so the subtraction sequence is unchanged.
void charge_usage(std::vector<Capacity>& remaining, const MonitoringTree& tree) {
  tree.for_each_usage([&](NodeId n, Capacity u) { remaining[n] -= u; });
}

/// Build order for the given allocation scheme over set indices.
///
/// Deviation from Sec. 5.2: the paper orders trees by *increasing* size
/// ("small trees are more cost efficient ... less likely to consume much
/// resource for relaying"), which presumes relay cost is the dominant
/// waste. Under the measured cost model the dominant waste is per-message
/// overhead: a node that commits its capacity to several small trees first
/// pays C per tree and can no longer join the large tree where one message
/// would deliver many pairs. Building the *largest* candidate sets first
/// is the deterministic size-ordering that realizes the scheme's intent
/// here (it consistently beats arbitrary-order ON-DEMAND; ascending order
/// consistently loses to it). See EXPERIMENTS.md, Fig. 11.
std::vector<std::size_t> build_order(AllocationScheme scheme,
                                     const std::vector<std::size_t>& sizes) {
  std::vector<std::size_t> order(sizes.size());
  std::iota(order.begin(), order.end(), 0);
  if (scheme == AllocationScheme::kOrdered) {
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return sizes[a] > sizes[b];
    });
  }
  return order;
}

/// The prologue of rebuild_score. Fills `sc` with the sorted victims, the
/// kept entry indices, the post-operation sets (kept sets in entry order,
/// then the new sets, which take the tail indices), the remaining budgets
/// and the new sets' build order, and returns the shares the new builds
/// read.
/// Kept usage accumulates in entry order from zero, so each budget is
/// bit-identical to capacity minus node_usage() — floored at 0: repair and
/// parking may spend collector headroom the planning model holds back, and
/// a budget is never below 0 nor below a tree's usage.
ShareInfo rebuild_prologue(const Topology& topo, const SystemModel& system,
                           const PairSet& pairs,
                           const std::vector<std::size_t>& victim_indices,
                           const std::vector<std::vector<AttrId>>& new_sets,
                           AllocationScheme allocation, TreeBuildCache& cache,
                           RebuildScratch& sc) {
  sc.victims.assign(victim_indices.begin(), victim_indices.end());
  sort_unique(sc.victims);
  sc.kept.clear();
  sc.all_sets.clear();
  sc.all_sets.reserve(topo.entries().size() - sc.victims.size() + new_sets.size());
  sc.usage.assign(system.num_vertices(), 0);
  for (std::size_t i = 0; i < topo.entries().size(); ++i) {
    if (set_contains(sc.victims, i)) continue;
    const auto& e = topo.entries()[i];
    sc.kept.push_back(i);
    sc.all_sets.push_back(e.attrs);
    e.tree.for_each_usage([&](NodeId n, Capacity u) { sc.usage[n] += u; });
  }
  const std::size_t first_new = sc.kept.size();
  for (const auto& s : new_sets) sc.all_sets.push_back(s);

  // Demand-driven rebuilds never read the advisory shares —
  // advisory_share() answers "unconstrained" for every vertex in the
  // kRebuild pass — so the prologue skips the per-node share indexes over
  // the kept sets (one nodes_with_any sweep per set otherwise) and computes
  // only the new sets' sizes, the build-order key.
  const bool demand_driven = allocation == AllocationScheme::kOnDemand ||
                             allocation == AllocationScheme::kOrdered;
  ShareInfo shares;
  if (demand_driven) {
    shares.tree_size.resize(sc.all_sets.size());
    for (std::size_t k = first_new; k < sc.all_sets.size(); ++k)
      shares.tree_size[k] = cache.items_template(sc.all_sets[k], pairs)->nodes.size();
  } else {
    shares = compute_shares(system, pairs, sc.all_sets);
  }

  sc.remaining.resize(system.num_vertices());
  for (NodeId n = 0; n < system.num_vertices(); ++n)
    sc.remaining[n] = std::max(system.capacity(n) - sc.usage[n], Capacity{0});

  sc.new_sizes.resize(new_sets.size());
  for (std::size_t k = 0; k < new_sets.size(); ++k)
    sc.new_sizes[k] = shares.tree_size[first_new + k];
  sc.order = build_order(allocation, sc.new_sizes);
  return shares;
}

}  // namespace

const char* to_string(AllocationScheme s) noexcept {
  switch (s) {
    case AllocationScheme::kUniform:
      return "UNIFORM";
    case AllocationScheme::kProportional:
      return "PROPORTIONAL";
    case AllocationScheme::kOnDemand:
      return "ON-DEMAND";
    case AllocationScheme::kOrdered:
      return "ORDERED";
  }
  return "?";
}

std::size_t Topology::collected_pairs() const {
  std::size_t total = 0;
  for (const auto& e : entries_) total += e.collected_pairs;
  return total;
}

double Topology::coverage() const {
  return total_pairs_ == 0
             ? 1.0
             : static_cast<double>(collected_pairs()) / static_cast<double>(total_pairs_);
}

Capacity Topology::total_cost() const {
  Capacity total = 0;
  for (const auto& e : entries_) total += e.tree.total_cost();
  return total;
}

std::size_t Topology::total_messages() const {
  std::size_t total = 0;
  for (const auto& e : entries_) total += e.tree.total_messages();
  return total;
}

Capacity Topology::node_usage(NodeId id) const {
  Capacity total = 0;
  for (const auto& e : entries_)
    if (id == kCollectorId || e.tree.contains(id)) total += e.tree.usage(id);
  return total;
}

Capacity Topology::remaining(NodeId id, const SystemModel& system) const {
  return system.capacity(id) - node_usage(id);
}

Partition Topology::partition() const {
  std::vector<std::vector<AttrId>> sets;
  sets.reserve(entries_.size());
  for (const auto& e : entries_) sets.push_back(e.attrs);
  return Partition(std::move(sets));
}

std::vector<TopologyEdge> Topology::edges() const {
  std::vector<TopologyEdge> out;
  for (const auto& e : entries_)
    for (NodeId n : e.tree.members()) out.push_back({n, e.tree.parent(n)});
  std::sort(out.begin(), out.end());
  return out;
}

bool Topology::validate(const SystemModel& system) const {
  for (const auto& e : entries_) {
    if (!e.tree.validate()) return false;
    if (e.collected_pairs != e.tree.collected_pairs()) return false;
  }
  for (NodeId n = 0; n < system.num_vertices(); ++n)
    if (node_usage(n) > system.capacity(n) + 1e-6) return false;
  return true;
}

std::size_t edge_diff(const Topology& before, const Topology& after) {
  const auto a = before.edges();
  const auto b = after.edges();
  std::size_t diff = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++diff;
      ++i;
    } else if (b[j] < a[i]) {
      ++diff;
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  diff += (a.size() - i) + (b.size() - j);
  return diff;
}

std::vector<NodeAttrPair> collected_pairs_of(const Topology& topo) {
  std::vector<NodeAttrPair> out;
  out.reserve(topo.collected_pairs());
  for (const auto& entry : topo.entries()) {
    const std::vector<AttrId> attrs = entry.tree.attr_ids();
    for (NodeId member : entry.tree.members())
      for (std::size_t m = 0; m < attrs.size(); ++m)
        if (entry.tree.local_counts(member)[m] > 0)
          out.push_back(NodeAttrPair{member, attrs[m]});
  }
  std::sort(out.begin(), out.end());
  return out;
}

Topology build_topology(const SystemModel& system, const PairSet& pairs,
                        const Partition& partition, const AttrSpecTable& specs,
                        AllocationScheme allocation, const TreeBuildOptions& tree_opts,
                        TreeBuildCache& cache) {
  Topology topo;
  topo.set_total_pairs(pairs.total_pairs());
  const auto& sets = partition.sets();
  const ShareInfo shares = compute_shares(system, pairs, sets);
  const BuildContext ctx{system, pairs, specs, tree_opts, allocation,
                         shares, BuildPass::kInitial, cache};

  RebuildScratch sc;
  sc.remaining.resize(system.num_vertices());
  for (NodeId n = 0; n < system.num_vertices(); ++n) sc.remaining[n] = system.capacity(n);

  for (std::size_t k : build_order(allocation, shares.tree_size)) {
    auto entry = build_entry(ctx, sets[k], k, sc);
    charge_usage(sc.remaining, entry.tree);
    topo.mutable_entries().push_back(std::move(entry));
  }
  return topo;
}

RebuildScore rebuild_score(const Topology& topo, const SystemModel& system,
                           const PairSet& pairs,
                           const std::vector<std::size_t>& victim_indices,
                           const std::vector<std::vector<AttrId>>& new_sets,
                           const AttrSpecTable& specs, AllocationScheme allocation,
                           const TreeBuildOptions& tree_opts, TreeBuildCache& cache,
                           RebuildScratch& sc, std::vector<TreeEntry>& new_trees) {
  const ShareInfo shares = rebuild_prologue(topo, system, pairs, victim_indices,
                                            new_sets, allocation, cache, sc);
  const BuildContext ctx{system, pairs, specs, tree_opts, allocation,
                         shares, BuildPass::kRebuild, cache};
  // Every accumulation below runs in the assembled topology's entry order
  // (kept entries in original order, then new trees in build order), so
  // the result is bit-identical to score_of(assemble_rebuild(...)) — ties
  // in the search must not depend on how a candidate was scored.
  RebuildScore score;
  for (std::size_t i : sc.kept) {
    score.collected += topo.entries()[i].collected_pairs;
    score.cost += topo.entries()[i].tree.total_cost();
  }
  new_trees.clear();
  for (std::size_t k : sc.order) {
    TreeEntry entry = build_entry(ctx, new_sets[k], sc.kept.size() + k, sc);
    charge_usage(sc.remaining, entry.tree);
    score.collected += entry.collected_pairs;
    score.cost += entry.tree.total_cost();
    new_trees.push_back(std::move(entry));
  }
  return score;
}

Topology assemble_rebuild(const Topology& topo,
                          const std::vector<std::size_t>& victim_indices,
                          std::vector<TreeEntry> new_trees, std::size_t total_pairs) {
  Topology out;
  out.set_total_pairs(total_pairs);
  auto& entries = out.mutable_entries();
  entries.reserve(topo.entries().size() + new_trees.size());
  for (std::size_t i = 0; i < topo.entries().size(); ++i)
    if (std::find(victim_indices.begin(), victim_indices.end(), i) ==
        victim_indices.end())
      entries.push_back(topo.entries()[i]);
  for (auto& entry : new_trees) entries.push_back(std::move(entry));
  return out;
}

Topology rebuild_trees(const Topology& topo, const SystemModel& system,
                       const PairSet& pairs,
                       const std::vector<std::size_t>& victim_indices,
                       const std::vector<std::vector<AttrId>>& new_sets,
                       const AttrSpecTable& specs, AllocationScheme allocation,
                       const TreeBuildOptions& tree_opts, TreeBuildCache& cache) {
  RebuildScratch sc;
  std::vector<TreeEntry> new_trees;
  rebuild_score(topo, system, pairs, victim_indices, new_sets, specs, allocation,
                tree_opts, cache, sc, new_trees);
  return assemble_rebuild(topo, victim_indices, std::move(new_trees),
                          pairs.total_pairs());
}

}  // namespace remo
