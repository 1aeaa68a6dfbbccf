// Resource-constrained monitoring-tree construction (Sec. 3.2.1, Sec. 5.1).
//
// Given the attribute set of one tree and the set of candidate member
// nodes (each with local value counts and an allocated capacity), build a
// tree that includes as many nodes as possible without violating any
// member's capacity — the (NP-complete) tree construction problem of
// Problem Statement 2. Four heuristics:
//
//   STAR      attach to the shallowest feasible vertex: bushy trees, low
//             relay cost, but the root pays heavy per-message overhead;
//   CHAIN     attach to the deepest feasible vertex: balanced load, high
//             relay cost;
//   MAX_AVB   attach to the feasible vertex with most slack (the TMON
//             heuristic of Kashyap et al., used as a baseline in Fig. 7);
//   ADAPTIVE  REMO's scheme: STAR-like construction until the tree
//             saturates, then an adjusting procedure that prunes the
//             cheapest branch of a congested node and reattaches it deeper,
//             trading relay cost for per-message overhead; iterate.
//
// The two Sec. 5.1 optimizations are independent flags:
//   branch_reattach  move the pruned branch as a whole instead of
//                    re-inserting node by node (5.1.1);
//   subtree_only     search reattachment targets only inside the congested
//                    node's subtree when Theorem 1 applies (5.1.2).
#pragma once

#include <cstddef>
#include <vector>

#include "cost/cost_model.h"
#include "tree/monitoring_tree.h"

namespace remo {

enum class TreeScheme : std::uint8_t { kStar, kChain, kMaxAvb, kAdaptive };

const char* to_string(TreeScheme s) noexcept;

struct TreeBuildOptions {
  TreeScheme scheme = TreeScheme::kAdaptive;
  /// Sec. 5.1.1: reattach pruned branches wholesale (vs node-by-node).
  bool branch_reattach = true;
  /// Sec. 5.1.2: restrict the reattach search to the congested node's
  /// subtree whenever Theorem 1 guarantees completeness.
  bool subtree_only = true;
};

struct TreeBuildResult {
  MonitoringTree tree;
  /// Items that could not be included; their node-attribute pairs are not
  /// collected by this tree.
  std::vector<BuildItem> rejected;
  /// Diagnostics.
  std::size_t adjust_invocations = 0;
  std::size_t reattach_tests = 0;
  /// CPU seconds spent inside the adjusting procedure (the quantity the
  /// Sec. 5.1 optimizations speed up; Fig. 10 reports its ratio).
  double adjust_seconds = 0.0;
};

/// Builds one monitoring tree. `items` need not be sorted; nodes with zero
/// local values are rejected outright (they have nothing to contribute).
TreeBuildResult build_tree(std::vector<TreeAttrSpec> attrs,
                           std::vector<BuildItem> items, Capacity collector_avail,
                           CostModel cost, const TreeBuildOptions& options);

/// One invocation of the adjusting procedure on an existing tree: prune a
/// branch of a congested node and reattach it per `options`. Exposed for
/// tests and the Fig. 10 speedup measurements; the builder calls the same
/// code internally. `min_demand` is the u_df of the cheapest pending node
/// (the Theorem 1 gate). Returns true if the tree changed; `stats`, when
/// given, accumulates reattach-test counts.
bool adjust_tree_once(MonitoringTree& tree, std::vector<NodeId> congested,
                      Capacity min_demand, const TreeBuildOptions& options,
                      TreeBuildResult* stats = nullptr);

}  // namespace remo
