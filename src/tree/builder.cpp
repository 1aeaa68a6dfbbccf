#include "tree/builder.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

namespace remo {

namespace {

/// Consecutive adjustments that enable no new attachment before the
/// construct/adjust iteration stops (guards its termination).
constexpr std::size_t kMaxFruitlessAdjusts = 4;

/// Scratch reused across the rounds of one build (or one adjust_tree_once
/// call), so the construct/adjust loop allocates nothing per round once the
/// buffers have grown.
struct BuildScratch {
  /// The congested nodes one construction pass records, each once: a node
  /// joins only while its mark is unset (see add_congested).
  std::vector<NodeId> congested;
  /// Demand signatures whose parent scan found no vertex since the tree
  /// last changed (see construction_pass). They borrow the pending items'
  /// rows, so they are valid only during the pass that recorded them.
  std::vector<MonitoringTree::DemandSignature> failed;
  /// Collector-first attaches whose blockers are not yet recorded (see
  /// record_collector_run): (members before the attach, item value total).
  std::vector<std::pair<std::size_t, std::uint64_t>> collector_run;
  std::vector<std::pair<std::size_t, NodeId>> depth_keys;  // (depth, id)
  std::vector<std::pair<Capacity, NodeId>> cost_keys;      // (send cost, id)
  std::vector<MonitoringTree::RankedTarget> slack_keys;    // (slack, id)
  std::vector<NodeId> branch, scope;
  /// NodeId-indexed flags; all zero between uses.
  std::vector<std::uint8_t> mark;

  void set_mark(NodeId v) {
    if (v >= mark.size()) mark.resize(v + 1, 0);
    mark[v] = 1;
  }
  bool marked(NodeId v) const { return v < mark.size() && mark[v] != 0; }
  void clear_marks(const std::vector<NodeId>& nodes) {
    for (NodeId v : nodes) mark[v] = 0;
  }
  /// Records congested node `v` unless the pass already has; the marks
  /// stay set until construction_pass clears them at its end.
  void add_congested(NodeId v) {
    if (marked(v)) return;
    set_mark(v);
    congested.push_back(v);
  }
};

/// Parent-selection criterion per scheme over `scan`'s item. Returns
/// kNoNode if no vertex can feasibly accept the item; otherwise the chosen
/// parent. Blocking vertices encountered during the scan join
/// `scratch.congested`. The scan answers each candidate with one ancestor
/// walk, with the item's own checks done once.
// REMO_HOT: called once per pending item per construction pass.
NodeId select_parent(const MonitoringTree& tree,
                     const MonitoringTree::AttachScan& scan, TreeScheme scheme,
                     BuildScratch& scratch) {
  NodeId best = kNoNode;
  // (primary, secondary) score; lower is better.
  double best_primary = std::numeric_limits<double>::infinity();
  double best_secondary = std::numeric_limits<double>::infinity();

  auto consider = [&](NodeId v) {
    NodeId blocker = kNoNode;
    if (!scan.can_attach(v, &blocker)) {
      if (blocker != kNoNode) scratch.add_congested(blocker);
      return;
    }
    double primary = 0.0;
    switch (scheme) {
      case TreeScheme::kStar:
      case TreeScheme::kAdaptive:
        primary = static_cast<double>(tree.depth(v));  // shallowest
        break;
      case TreeScheme::kChain:
        primary = -static_cast<double>(tree.depth(v));  // deepest
        break;
      case TreeScheme::kMaxAvb:
        primary = -tree.slack(v);  // most available capacity
        break;
    }
    const double secondary = -tree.slack(v);
    if (primary < best_primary ||
        (primary == best_primary && secondary < best_secondary)) {
      best = v;
      best_primary = primary;
      best_secondary = secondary;
    }
  };

  consider(kCollectorId);
  for (NodeId v : tree.members()) consider(v);
  return best;
}

/// A pending node plus its send-cost demand u = C + a·y. The demand depends
/// only on the item's local counts and the tree's attribute specs — both
/// fixed for the whole build — so it is computed once per item instead of
/// once per adjust round.
struct PendingItem {
  BuildItem item;
  Capacity demand = 0;
  bool attached = false;
};

Capacity item_demand(const MonitoringTree& tree, const BuildItem& item) {
  double y = 0.0;
  const auto& specs = tree.attr_specs();
  for (std::size_t m = 0; m < specs.size(); ++m)
    y += specs[m].weight * static_cast<double>(specs[m].funnel(item.local[m]));
  return tree.cost().per_message + tree.cost().per_value * y;
}

/// Records the blockers that the parent scans skipped by the pending
/// collector-first attaches would have recorded, and clears the run. Such
/// a scan's blockers are the members whose parent-hop check fails for the
/// item (MonitoringTree::parent_hop_fails). No member changes while items
/// join under the collector, and the check is monotone in the item's
/// value total, so each member is tested once, against the largest total
/// among the run's items that scanned it: the items that joined after it.
/// A member already recorded needs no test.
void record_collector_run(const MonitoringTree& tree, BuildScratch& scratch) {
  auto& run = scratch.collector_run;
  const auto& members = tree.members();
  std::uint64_t largest = 0;
  for (std::size_t r = run.size(); r-- > 0;) {
    // Members [run[r-1].first, run[r].first) were scanned by items r..end.
    largest = std::max(largest, run[r].second);
    for (std::size_t j = r == 0 ? 0 : run[r - 1].first; j < run[r].first; ++j)
      if (!scratch.marked(members[j]) &&
          tree.parent_hop_fails(members[j], largest))
        scratch.add_congested(members[j]);
  }
  run.clear();
}

/// One construction pass (the STAR-like construction procedure): tries to
/// attach every pending item, removing the ones that succeed, and leaves
/// the pass's congested nodes in `scratch.congested`, sorted, each once.
/// Returns the number of attachments made.
///
/// A parent scan answers an item only through its demand signature (or
/// through its own budget, which records no congested node), so once a
/// signature has failed, every later item with that signature fails the
/// same way with the same blockers — until an attach changes the tree.
/// Such items skip the scan: the blockers are already recorded.
///
/// Collector first: under STAR and ADAPTIVE the collector is the only
/// depth-0 vertex, so select_parent returns it whenever it is feasible. On
/// uniform-identity trees such an item is attached without a scan, and
/// its blockers are recorded later by record_collector_run — before the
/// next attach below a member, or at the end of a pass that leaves items
/// pending (only the adjusting procedure reads `congested`, and it never
/// runs after a pass that placed every item).
// REMO_HOT: one call per construct/adjust round.
std::size_t construction_pass(MonitoringTree& tree,
                              std::vector<PendingItem>& pending,
                              TreeScheme scheme, BuildScratch& scratch) {
  const bool collector_first =
      tree.uniform_identity() &&
      (scheme == TreeScheme::kStar || scheme == TreeScheme::kAdaptive);
  std::size_t attached = 0;
  scratch.congested.clear();
  auto& failed = scratch.failed;
  failed.clear();
  for (auto& p : pending) {
    const auto sig = tree.demand_signature(p.item);
    if (std::find(failed.begin(), failed.end(), sig) != failed.end()) continue;
    const auto scan = tree.attach_scan(p.item);
    if (scan.fails_on_item()) continue;
    NodeId parent = kCollectorId;
    if (collector_first && scan.can_attach(kCollectorId)) {
      scratch.collector_run.emplace_back(tree.size(), sig.total);
    } else {
      parent = select_parent(tree, scan, scheme, scratch);
      if (parent == kNoNode) {
        failed.push_back(sig);
        continue;
      }
      if (parent != kCollectorId) record_collector_run(tree, scratch);
    }
    tree.attach(p.item, parent);
    p.attached = true;
    ++attached;
    failed.clear();
  }
  std::erase_if(pending, [](const PendingItem& p) { return p.attached; });
  if (pending.empty())
    scratch.collector_run.clear();
  else
    record_collector_run(tree, scratch);
  // The adjusting procedure reuses the marks; they go back to zero here.
  scratch.clear_marks(scratch.congested);
  std::sort(scratch.congested.begin(), scratch.congested.end());
  return attached;
}

/// Minimum send-cost demand over pending items (the u of the cheapest node
/// that failed to attach) — the d_f demand used by the Theorem 1 gate.
Capacity min_pending_demand(const std::vector<PendingItem>& pending) {
  Capacity best = std::numeric_limits<Capacity>::infinity();
  for (const auto& p : pending) best = std::min(best, p.demand);
  return best;
}

/// Reattachment candidates for branch `b` pruned from congested node `dc`,
/// keyed by slack into `scratch.slack_keys` in gathering order.
/// `subtree_scope`: restrict to dc's subtree (minus the branch and dc
/// itself); otherwise every vertex except dc and the branch.
// REMO_HOT: one call per pruned branch in the adjusting procedure.
void reattach_candidates(const MonitoringTree& tree, NodeId dc, NodeId b,
                         bool subtree_scope, BuildScratch& scratch) {
  tree.branch_nodes(b, scratch.branch);
  for (NodeId n : scratch.branch) scratch.set_mark(n);
  scratch.set_mark(dc);
  auto& keys = scratch.slack_keys;
  keys.clear();
  auto consider = [&](NodeId v) {
    if (!scratch.marked(v)) keys.emplace_back(tree.slack(v), v);
  };
  if (subtree_scope) {
    tree.branch_nodes(dc, scratch.scope);
    for (NodeId n : scratch.scope) consider(n);
  } else {
    consider(kCollectorId);
    for (NodeId n : tree.members()) consider(n);
  }
  scratch.clear_marks(scratch.branch);
  scratch.mark[dc] = 0;
}

/// The adjusting procedure: pick a congested node (shallowest first — "low
/// level" nodes are the bottleneck under STAR construction), prune its
/// cheapest branch, and reattach it deeper to convert per-message overhead
/// into relay cost. Returns true if the tree changed.
bool adjust(MonitoringTree& tree, const std::vector<NodeId>& congested,
            Capacity min_demand, const TreeBuildOptions& opts,
            TreeBuildResult& stats, BuildScratch& scratch) {
  ++stats.adjust_invocations;
  auto& order = scratch.depth_keys;
  order.clear();
  for (NodeId v : congested) order.emplace_back(tree.depth(v), v);
  std::sort(order.begin(), order.end());

  for (const auto& key : order) {
    const NodeId dc = key.second;
    if (!tree.contains(dc)) continue;
    const auto& kids = tree.children(dc);
    if (kids.size() < 2) continue;  // degree cannot usefully shrink
    // Branches of dc in ascending message cost: the cheapest branch is the
    // most movable, but when it cannot be rehomed the next ones are tried
    // (any relocated branch frees C at dc). Keyed before any trial: a
    // failed trial reorders dc's child list.
    auto& branches = scratch.cost_keys;
    branches.clear();
    for (NodeId b : kids) branches.emplace_back(tree.send_cost(b), b);
    std::sort(branches.begin(), branches.end());

    for (const auto& [b_cost, b] : branches) {
      // Theorem 1: if u_df <= u_b the subtree of dc is a complete search
      // scope; otherwise fall back to the full tree.
      const bool scope_subtree = opts.subtree_only && min_demand <= b_cost + 1e-9;

      if (opts.branch_reattach) {
        // Targets with the most slack go first: they are the likeliest to
        // absorb the branch, keeping the scan short. (slack, id) is a
        // strict total order, so the rank does not depend on the gathering
        // order; only the targets that pass their own hop are sorted.
        reattach_candidates(tree, dc, b, scope_subtree, scratch);
        auto& keys = scratch.slack_keys;
        const std::size_t rank = tree.move_branch_ranked(b, keys);
        // One test per target ranked up to the taker, as a move_branch
        // loop over the sorted list would count.
        stats.reattach_tests += std::min(rank + 1, keys.size());
        if (rank < keys.size()) return true;
      } else {
        // Node-by-node reattach (the basic scheme): detach the branch, then
        // greedily re-insert each node anywhere except dc. All-or-nothing:
        // journal the mutations and roll back if any node fails.
        tree.begin_journal();
        auto items = tree.detach_branch(b);
        // Theorem 1 scope: dc's subtree, marked once; re-inserted nodes
        // land under a marked vertex, so they join the mark.
        auto& inside = scratch.scope;
        inside.clear();
        if (scope_subtree) {
          tree.branch_nodes(dc, inside);
          for (NodeId v : inside) scratch.set_mark(v);
        }
        bool ok = true;
        for (const auto& item : items) {
          NodeId best = kNoNode;
          double best_slack = -std::numeric_limits<double>::infinity();
          const auto scan = tree.attach_scan(item);
          auto try_target = [&](NodeId v) {
            if (v == dc || v == item.id) return;
            if (scope_subtree && !scratch.marked(v)) return;
            ++stats.reattach_tests;
            if (!scan.can_attach(v)) return;
            const double s = tree.slack(v);
            if (s > best_slack) {
              best_slack = s;
              best = v;
            }
          };
          try_target(kCollectorId);
          for (NodeId v : tree.members()) try_target(v);
          if (best == kNoNode) {
            ok = false;
            break;
          }
          tree.attach(item, best);
          if (scope_subtree) {
            scratch.set_mark(item.id);
            inside.push_back(item.id);
          }
        }
        scratch.clear_marks(inside);
        if (ok) {
          tree.commit_journal();
          return true;
        }
        tree.rollback_journal();
      }
    }
  }
  return false;
}

}  // namespace

bool adjust_tree_once(MonitoringTree& tree, std::vector<NodeId> congested,
                      Capacity min_demand, const TreeBuildOptions& options,
                      TreeBuildResult* stats) {
  TreeBuildResult unused{MonitoringTree({}, 0, tree.cost()), {}, 0, 0, 0.0};
  TreeBuildResult& sink = stats != nullptr ? *stats : unused;
  BuildScratch scratch;
  return adjust(tree, congested, min_demand, options, sink, scratch);
}

const char* to_string(TreeScheme s) noexcept {
  switch (s) {
    case TreeScheme::kStar:
      return "STAR";
    case TreeScheme::kChain:
      return "CHAIN";
    case TreeScheme::kMaxAvb:
      return "MAX_AVB";
    case TreeScheme::kAdaptive:
      return "ADAPTIVE";
  }
  return "?";
}

TreeBuildResult build_tree(std::vector<TreeAttrSpec> attrs,
                           std::vector<BuildItem> items, Capacity collector_avail,
                           CostModel cost, const TreeBuildOptions& options) {
  TreeBuildResult result{MonitoringTree(std::move(attrs), collector_avail, cost),
                         {},
                         0,
                         0,
                         0.0};
  result.tree.reserve(items.size());

  // Nodes with nothing to report never join; surface them as rejected so
  // accounting stays exact.
  std::vector<PendingItem> pending;
  pending.reserve(items.size());
  for (auto& item : items) {
    if (item.local_total() == 0) {
      result.rejected.push_back(std::move(item));
    } else {
      PendingItem p{std::move(item), 0, false};
      p.demand = item_demand(result.tree, p.item);
      pending.push_back(std::move(p));
    }
  }

  // "adds nodes into the constructed tree in the order of decreased
  // available capacity" (Sec. 3.2.1).
  std::sort(pending.begin(), pending.end(),
            [](const PendingItem& a, const PendingItem& b) {
              if (a.item.avail != b.item.avail) return a.item.avail > b.item.avail;
              return a.item.id < b.item.id;
            });

  BuildScratch scratch;
  std::size_t fruitless = 0;
  while (!pending.empty()) {
    const std::size_t attached =
        construction_pass(result.tree, pending, options.scheme, scratch);
    if (pending.empty()) break;
    if (attached > 0)
      fruitless = 0;
    else if (result.adjust_invocations > 0 &&
             ++fruitless > kMaxFruitlessAdjusts)
      break;
    if (options.scheme != TreeScheme::kAdaptive) {
      if (attached == 0) break;
      continue;
    }
    const Capacity min_demand = min_pending_demand(pending);
    const auto adjust_start = std::chrono::steady_clock::now();
    const bool adjusted = adjust(result.tree, scratch.congested, min_demand,
                                 options, result, scratch);
    result.adjust_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      adjust_start)
            .count();
    if (!adjusted) break;
  }

  for (auto& p : pending) result.rejected.push_back(std::move(p.item));
  return result;
}

}  // namespace remo
