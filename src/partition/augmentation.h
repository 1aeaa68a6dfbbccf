// Guided partition augmentation (Sec. 3.1.1): the neighboring solutions of
// a partition (one merge or one split away), their rebuild footprints, and
// the estimated reduction in total capacity usage that ranks them, so the
// planner can evaluate only the most promising few with (expensive)
// resource-aware tree construction. The one candidate generator is the
// planner's rank_topology_augmentations (planner/planner.h).
//
// The exact gain formula lives in the paper's online appendix, which is
// not part of the provided text; the estimates here implement what the
// body specifies — "the estimated reduction in the total capacity usage
// that would result from using the new partition":
//
//   merge(A_i, A_j):  every node monitored by both trees sends (and its
//     parent receives) one message instead of two, saving ~2·C per shared
//     node per unit time:              g = 2·C·|N_i ∩ N_j|
//   split(A_i ▷ α):   a split never reduces aggregate usage (it adds
//     per-message overhead 2·C for every node that monitors α alongside
//     another attribute of A_i), but it relieves the per-node payload of
//     an overloaded tree; we rank splits by relieved payload minus added
//     overhead:                        g = a·Σ_{n∈N_α} depth-free payload
//                                          − 2·C·|N_α ∩ N_{A_i∖α}|
//     (payload relieved = values of α no longer relayed in tree i).
//
// Positive-gain merges come first; splits matter when the evaluation
// objective (collected pairs) is capacity-limited, which the planner
// discovers by evaluating them after the merges.
#pragma once

#include <cstddef>
#include <vector>

#include "cost/cost_model.h"
#include "partition/partition.h"

namespace remo {

enum class AugmentKind : std::uint8_t { kMerge, kSplit };

struct Augmentation {
  AugmentKind kind = AugmentKind::kMerge;
  /// Merge: the two set indices. Split: set_a is the set index.
  std::size_t set_a = 0;
  std::size_t set_b = 0;
  /// Split only: the attribute moved into its own set.
  AttrId attr = 0;
  /// Estimated total-capacity-usage reduction (higher = more promising).
  double estimated_gain = 0.0;
};

/// Applies `aug` to a copy of `p` and returns it.
Partition apply(const Partition& p, const Augmentation& aug);

/// The tree-rebuild footprint of applying `aug` to `p`: which partition
/// sets (by index) are torn down and which attribute sets replace them.
/// This is the unit of work the plan-evaluation engine executes — a merge
/// replaces two trees with their union, a split replaces one tree with
/// (rest, {attr}).
struct AugmentationFootprint {
  std::vector<std::size_t> victims;
  std::vector<std::vector<AttrId>> new_sets;
};

AugmentationFootprint footprint(const Partition& p, const Augmentation& aug);

/// Estimated gain of merging two sets whose trees share `shared_nodes`
/// nodes — nodes monitoring attributes of both (see file comment).
double estimate_merge_gain(std::size_t shared_nodes, const CostModel& cost);

/// Estimated gain of splitting an attribute out of its set: `attr_nodes`
/// nodes monitor the attribute, `shared_nodes` of them also monitor
/// another attribute of the set.
double estimate_split_gain(std::size_t attr_nodes, std::size_t shared_nodes,
                           const CostModel& cost);

}  // namespace remo
