#include "partition/augmentation.h"

#include <algorithm>

#include "common/sorted_vector.h"

namespace remo {

Partition apply(const Partition& p, const Augmentation& aug) {
  Partition out = p;
  if (aug.kind == AugmentKind::kMerge)
    out.merge(aug.set_a, aug.set_b);
  else
    out.split(aug.set_a, aug.attr);
  return out;
}

AugmentationFootprint footprint(const Partition& p, const Augmentation& aug) {
  AugmentationFootprint fp;
  if (aug.kind == AugmentKind::kMerge) {
    fp.victims = {aug.set_a, aug.set_b};
    fp.new_sets = {set_union(p.set(aug.set_a), p.set(aug.set_b))};
  } else {
    fp.victims = {aug.set_a};
    auto rest = set_difference(p.set(aug.set_a), std::vector<AttrId>{aug.attr});
    fp.new_sets = {std::move(rest), {aug.attr}};
  }
  return fp;
}

double estimate_merge_gain(std::size_t shared_nodes, const CostModel& cost) {
  return 2.0 * cost.per_message * static_cast<double>(shared_nodes);
}

double estimate_split_gain(std::size_t attr_nodes, std::size_t shared_nodes,
                           const CostModel& cost) {
  // Payload relieved from the set's tree: one value of the attribute per
  // monitoring node, no longer mixed into the (potentially overloaded)
  // shared tree.
  const double relieved = cost.per_value * static_cast<double>(attr_nodes);
  const double overhead = 2.0 * cost.per_message * static_cast<double>(shared_nodes);
  return relieved - overhead;
}

}  // namespace remo
