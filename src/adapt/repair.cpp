#include "adapt/repair.h"

#include <algorithm>

#include "common/check.h"
#include "common/sorted_vector.h"

namespace remo {

namespace {

/// Shallowest feasible attach point for `item`, excluding suspected
/// vertices (`suspect` sorted-unique); ties break by ascending node id.
/// kNoNode if none.
NodeId best_attach_point(const MonitoringTree& tree, const BuildItem& item,
                         const std::vector<NodeId>& suspect) {
  std::vector<NodeId> targets = tree.members();
  std::sort(targets.begin(), targets.end());
  targets.insert(targets.begin(), kCollectorId);
  NodeId best = kNoNode;
  std::size_t best_depth = 0;
  for (NodeId v : targets) {
    if (set_contains(suspect, v)) continue;
    const std::size_t d = tree.depth(v);
    if (best != kNoNode && d >= best_depth) continue;
    if (!tree.can_attach(item, v)) continue;
    best = v;
    best_depth = d;
  }
  return best;
}

}  // namespace

RepairResult repair_topology(const Topology& topo, const SystemModel& system,
                             const std::vector<NodeId>& suspected) {
  RepairResult res;
  res.topo = topo;
  // Sorted-unique: membership is a binary search and — unlike a hash set —
  // iteration order is deterministic (DESIGN.md §10, lint rule
  // unordered-iteration).
  std::vector<NodeId> suspect(suspected.begin(), suspected.end());
  sort_unique(suspect);
  if (suspect.empty()) return res;

  for (auto& entry : res.topo.mutable_entries()) {
    MonitoringTree& tree = entry.tree;

    // Suspected members of this tree, shallowest first: detaching a
    // shallow branch also removes any deeper suspects inside it.
    std::vector<NodeId> present;
    for (NodeId s : suspect)
      if (tree.contains(s)) present.push_back(s);
    if (present.empty()) continue;
    ++res.outcome.trees_touched;
    std::sort(present.begin(), present.end(), [&tree](NodeId a, NodeId b) {
      const std::size_t da = tree.depth(a), db = tree.depth(b);
      if (da != db) return da < db;
      return a < b;
    });

    std::vector<BuildItem> removed;
    for (NodeId s : present) {
      if (!tree.contains(s)) continue;  // already gone with an ancestor
      auto items = tree.detach_branch(s);
      removed.insert(removed.end(), std::make_move_iterator(items.begin()),
                     std::make_move_iterator(items.end()));
    }

    // Re-bind the survivors' allocations to their *global* remaining
    // budget before attaching anything. Unlike the DIRECT-APPLY clamp this
    // RELAXES as well as tightens: repair is the emergency path, so a tree
    // may spend every unit of capacity the rest of the forest is not
    // using — including the collector headroom the planner deliberately
    // left behind (MonitoringSystem's repair reserve).
    auto rebind = [&](NodeId v) {
      const Capacity other = res.topo.node_usage(v) - tree.usage(v);
      tree.set_avail(v, std::max(tree.usage(v), system.capacity(v) - other));
    };
    for (NodeId v : tree.members()) rebind(v);
    rebind(kCollectorId);

    // Re-home healthy orphans first (they carry live data), suspects last
    // (probe links). `removed` is BFS order, so a re-attached parent is a
    // candidate target for its former children.
    for (const bool suspects_pass : {false, true}) {
      for (const BuildItem& orig : removed) {
        if (set_contains(suspect, orig.id) != suspects_pass) continue;
        BuildItem item = orig;
        item.avail = std::max<Capacity>(
            0, system.capacity(item.id) - res.topo.node_usage(item.id));
        const NodeId target = best_attach_point(tree, item, suspect);
        if (target == kNoNode) {
          ++res.outcome.members_dropped;
          res.outcome.pairs_dropped += item.local_total();
          continue;
        }
        tree.attach(item, target);
        if (suspects_pass)
          ++res.outcome.suspects_parked;
        else
          ++res.outcome.orphans_reattached;
      }
    }
    entry.collected_pairs = tree.collected_pairs();
  }

  res.outcome.repair_messages = edge_diff(topo, res.topo);
  // Repair relaxes per-tree avails up to the global remaining budget, but
  // may never overdraw a node across the forest.
  REMO_VALIDATE(res.topo.validate(system),
                "repair_topology broke capacity invariants (", suspect.size(),
                " suspects, ", res.outcome.trees_touched, " trees touched)");
  return res;
}

RepairOutcome park_members(Topology& topo, const SystemModel& system,
                           const std::vector<NodeId>& members,
                           const PairSet& pairs) {
  RepairOutcome out;
  std::vector<NodeId> sorted(members.begin(), members.end());
  sort_unique(sorted);

  for (auto& entry : topo.mutable_entries()) {
    MonitoringTree& tree = entry.tree;
    const auto& specs = tree.attr_specs();
    bool rebound = false;
    for (NodeId m : sorted) {
      if (tree.contains(m)) continue;
      BuildItem item;
      item.id = m;
      item.local.resize(specs.size(), 0);
      for (std::size_t k = 0; k < specs.size(); ++k)
        if (pairs.contains(m, specs[k].attr)) item.local[k] = 1;
      if (item.local_total() == 0) continue;
      if (!rebound) {
        // Same relaxing re-bind as repair_topology: parking is the
        // emergency path and may spend the planner's reserved headroom.
        auto rebind = [&](NodeId v) {
          const Capacity other = topo.node_usage(v) - tree.usage(v);
          tree.set_avail(v, std::max(tree.usage(v), system.capacity(v) - other));
        };
        for (NodeId v : tree.members()) rebind(v);
        rebind(kCollectorId);
        rebound = true;
        ++out.trees_touched;
      }
      item.avail = std::max<Capacity>(
          0, system.capacity(m) - topo.node_usage(m));
      const NodeId target = best_attach_point(tree, item, sorted);
      if (target == kNoNode) {
        ++out.members_dropped;
        out.pairs_dropped += item.local_total();
        continue;
      }
      tree.attach(item, target);
      ++out.suspects_parked;
    }
    entry.collected_pairs = tree.collected_pairs();
  }
  REMO_VALIDATE(topo.validate(system), "park_members broke capacity invariants (",
                sorted.size(), " members, ", out.suspects_parked, " parked)");
  return out;
}

}  // namespace remo
