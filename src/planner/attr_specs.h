// Per-attribute planning properties: the funnel (in-network aggregation
// type, Sec. 6.1) and the update-frequency weight (Sec. 6.3). The basic
// REMO planner treats everything as holistic at weight 1.0; the extended
// planner consults this table so that per-node resource consumption is
// estimated correctly for aggregating / slow-updating attributes.
#pragma once

#include <unordered_map>

#include "common/types.h"
#include "tree/funnel.h"
#include "tree/monitoring_tree.h"

namespace remo {

class AttrSpecTable {
 public:
  /// Default for attributes not explicitly set: holistic, weight 1.0.
  void set_funnel(AttrId attr, FunnelSpec funnel) { funnels_[attr] = funnel; }
  /// `weight` = freq_attr / freq_max, in (0, 1].
  void set_weight(AttrId attr, double weight) { weights_[attr] = weight; }

  FunnelSpec funnel(AttrId attr) const {
    auto it = funnels_.find(attr);
    return it == funnels_.end() ? FunnelSpec{AggType::kHolistic} : it->second;
  }
  double weight(AttrId attr) const {
    auto it = weights_.find(attr);
    return it == weights_.end() ? 1.0 : it->second;
  }

  TreeAttrSpec tree_spec(AttrId attr) const {
    return TreeAttrSpec{attr, funnel(attr), weight(attr)};
  }

  bool empty() const noexcept { return funnels_.empty() && weights_.empty(); }

  /// Entry-wise equality of the explicitly set funnels and weights.
  bool operator==(const AttrSpecTable&) const = default;

  /// A copy with every funnel forced holistic and every weight forced to
  /// 1.0 — what the *basic* (extension-oblivious) planner sees (Fig. 12a's
  /// baseline).
  static AttrSpecTable plain() { return AttrSpecTable{}; }

 private:
  std::unordered_map<AttrId, FunnelSpec> funnels_;
  std::unordered_map<AttrId, double> weights_;
};

}  // namespace remo
