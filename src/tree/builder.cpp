#include "tree/builder.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <unordered_set>

#include "common/sorted_vector.h"

namespace remo {

namespace {

/// Parent-selection criterion per scheme. Returns kNoNode if no vertex can
/// feasibly accept `item`; otherwise the chosen parent. Blocking vertices
/// encountered during the scan are appended to `congested`.
// REMO_HOT: called once per pending item per construction pass.
NodeId select_parent(const MonitoringTree& tree, const BuildItem& item,
                     TreeScheme scheme, std::vector<NodeId>* congested) {
  NodeId best = kNoNode;
  // (primary, secondary) score; lower is better.
  double best_primary = std::numeric_limits<double>::infinity();
  double best_secondary = std::numeric_limits<double>::infinity();

  // Item invariants and per-slot feasibility masks computed once: the scan
  // below answers can_attach in O(1) per candidate instead of one ancestor
  // walk each (bit-identical booleans and blockers).
  const auto scan = tree.attach_scan(item);
  auto consider = [&](NodeId v) {
    NodeId blocker = kNoNode;
    if (!scan.can_attach(v, &blocker)) {
      if (congested && blocker != kNoNode && blocker != item.id)
        congested->push_back(blocker);
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
};

Capacity item_demand(const MonitoringTree& tree, const BuildItem& item) {
  double y = 0.0;
  const auto& specs = tree.attr_specs();
  for (std::size_t m = 0; m < specs.size(); ++m)
    y += specs[m].weight * static_cast<double>(specs[m].funnel(item.local[m]));
  return tree.cost().per_message + tree.cost().per_value * y;
}

/// One construction pass (the STAR-like construction procedure): tries to
/// attach every pending item, removing the ones that succeed. Returns the
/// number of attachments made.
std::size_t construction_pass(MonitoringTree& tree,
                              std::vector<PendingItem>& pending,
                              TreeScheme scheme, std::vector<NodeId>* congested) {
  std::size_t attached = 0;
  std::vector<PendingItem> still_pending;
  still_pending.reserve(pending.size());
  for (auto& p : pending) {
    const NodeId parent = select_parent(tree, p.item, scheme, congested);
    if (parent != kNoNode) {
      tree.attach(p.item, parent);
      ++attached;
    } else {
      still_pending.push_back(std::move(p));
    }
  }
  pending = std::move(still_pending);
  if (congested) sort_unique(*congested);
  return attached;
}

/// Minimum send-cost demand over pending items (the u of the cheapest node
/// that failed to attach) — the d_f demand used by the Theorem 1 gate.
Capacity min_pending_demand(const std::vector<PendingItem>& pending) {
  Capacity best = std::numeric_limits<Capacity>::infinity();
  for (const auto& p : pending) best = std::min(best, p.demand);
  return best;
}

/// Reattachment candidates for branch `b` pruned from congested node `dc`.
/// `subtree_scope`: restrict to dc's subtree (minus the branch and dc
/// itself); otherwise every vertex except dc and the branch.
std::vector<NodeId> reattach_candidates(const MonitoringTree& tree, NodeId dc,
                                        NodeId b, bool subtree_scope) {
  std::vector<NodeId> out;
  std::unordered_set<NodeId> excluded;
  for (NodeId n : tree.branch_nodes(b)) excluded.insert(n);
  excluded.insert(dc);
  if (subtree_scope) {
    for (NodeId n : tree.branch_nodes(dc))
      if (!excluded.count(n)) out.push_back(n);
  } else {
    if (!excluded.count(kCollectorId)) out.push_back(kCollectorId);
    for (NodeId n : tree.members())
      if (!excluded.count(n)) out.push_back(n);
  }
  // Prefer targets with the most slack: they are the likeliest to absorb
  // the branch, keeping the scan short.
  std::sort(out.begin(), out.end(), [&](NodeId x, NodeId y) {
    const double sx = tree.slack(x), sy = tree.slack(y);
    if (sx != sy) return sx > sy;
    return x < y;
  });
  return out;
}

/// The adjusting procedure: pick a congested node (shallowest first — "low
/// level" nodes are the bottleneck under STAR construction), prune its
/// cheapest branch, and reattach it deeper to convert per-message overhead
/// into relay cost. Returns true if the tree changed.
bool adjust(MonitoringTree& tree, std::vector<NodeId> congested,
            Capacity min_demand, const TreeBuildOptions& opts,
            TreeBuildResult& stats) {
  ++stats.adjust_invocations;
  std::sort(congested.begin(), congested.end(), [&](NodeId a, NodeId b) {
    const auto da = tree.depth(a), db = tree.depth(b);
    if (da != db) return da < db;
    return a < b;
  });

  for (NodeId dc : congested) {
    if (!tree.contains(dc)) continue;
    const auto& kids = tree.children(dc);
    if (kids.size() < 2) continue;  // degree cannot usefully shrink
    // Branches of dc in ascending message cost: the cheapest branch is the
    // most movable, but when it cannot be rehomed the next ones are tried
    // (any relocated branch frees C at dc).
    std::vector<NodeId> branches(kids.begin(), kids.end());
    std::sort(branches.begin(), branches.end(), [&](NodeId x, NodeId y) {
      const Capacity ux = tree.send_cost(x), uy = tree.send_cost(y);
      if (ux != uy) return ux < uy;
      return x < y;
    });

    for (NodeId b : branches) {
      const Capacity b_cost = tree.send_cost(b);
      // Theorem 1: if u_df <= u_b the subtree of dc is a complete search
      // scope; otherwise fall back to the full tree.
      const bool scope_subtree = opts.subtree_only && min_demand <= b_cost + 1e-9;

      if (opts.branch_reattach) {
        for (NodeId target : reattach_candidates(tree, dc, b, scope_subtree)) {
          ++stats.reattach_tests;
          if (tree.move_branch(b, target)) return true;
        }
      } else {
        // Node-by-node reattach (the basic scheme): detach the branch, then
        // greedily re-insert each node anywhere except dc. All-or-nothing:
        // journal the mutations and roll back if any node fails.
        tree.begin_journal();
        auto items = tree.detach_branch(b);
        bool ok = true;
        for (const auto& item : items) {
          NodeId best = kNoNode;
          double best_slack = -std::numeric_limits<double>::infinity();
          const auto scan = tree.attach_scan(item);
          auto try_target = [&](NodeId v) {
            if (v == dc || v == item.id) return;
            if (scope_subtree && !tree.in_subtree(v, dc)) return;
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
        }
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
  TreeBuildResult scratch{MonitoringTree({}, 0, tree.cost()), {}, 0, 0, 0.0};
  TreeBuildResult& sink = stats != nullptr ? *stats : scratch;
  return adjust(tree, std::move(congested), min_demand, options, sink);
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
      PendingItem p{std::move(item), 0};
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

  std::size_t fruitless = 0;
  while (!pending.empty()) {
    std::vector<NodeId> congested;
    const std::size_t attached =
        construction_pass(result.tree, pending, options.scheme, &congested);
    if (pending.empty()) break;
    if (attached > 0)
      fruitless = 0;
    else if (result.adjust_invocations > 0 &&
             ++fruitless > options.max_fruitless_adjusts)
      break;
    if (options.scheme != TreeScheme::kAdaptive) {
      if (attached == 0) break;
      continue;
    }
    const Capacity min_demand = min_pending_demand(pending);
    const auto adjust_start = std::chrono::steady_clock::now();
    const bool adjusted =
        adjust(result.tree, std::move(congested), min_demand, options, result);
    result.adjust_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      adjust_start)
            .count();
    if (!adjusted) break;
  }

  for (auto& p : pending) result.rejected.push_back(std::move(p.item));
  // Renumber arena slots into DFS preorder so ancestor walks against the
  // finished tree (later can_attach / attach checks) touch monotonically
  // nearby rows. Pure relayout: node ids, edges and costs are unchanged.
  result.tree.renumber_dfs();
  return result;
}

}  // namespace remo
