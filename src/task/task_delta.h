// Structured churn unit: what one task-manager mutation (or a merged
// burst of them) changed, expressed directly as a pair-set delta. Emitted by TaskManager's delta-returning mutators and
// apply_update_batch so delta consumers (the MonitoringSystem facade's
// pending delta and AdaptivePlanner::apply_delta, DESIGN.md §13) never
// have to re-diff full PairSets.
#pragma once

#include "common/sorted_vector.h"
#include "common/types.h"
#include "task/pair_set.h"

namespace remo {

struct TaskDelta {
  /// Exact deduplicated-pair delta: `added` are pairs that entered the
  /// dedup set (refcount 0 → 1), `removed` are pairs that left it
  /// (refcount 1 → 0). Pairs still requested by another task after a
  /// removal do not appear.
  PairSetDelta pairs;

  /// Composes `more` on top of this delta (see PairSetDelta::merge for the
  /// cancellation semantics).
  void merge(const TaskDelta& more) { pairs.merge(more.pairs); }
};

}  // namespace remo
