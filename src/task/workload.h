// Synthetic workload generation reproducing the Sec. 7 setup: "we assign a
// random subset of attributes to each node ... we generate [tasks] by
// randomly selecting |A_t| attributes and |N_t| nodes with uniform
// distribution", split into small-scale and large-scale task classes, plus
// the Fig. 9 task-update stream ("randomly select 5 percent of monitoring
// nodes and replace 50 percent of their monitoring attributes").
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "cost/system_model.h"
#include "task/task.h"
#include "task/task_delta.h"
#include "task/task_manager.h"

namespace remo {

struct WorkloadConfig {
  /// Size of the attribute-type universe A.
  std::size_t attr_universe = 200;

  /// Small-scale tasks: "a small set of attributes from a small set of
  /// nodes" (Sec. 7).
  std::size_t small_attrs_min = 2, small_attrs_max = 6;
  std::size_t small_nodes_min = 5, small_nodes_max = 20;

  /// Large-scale tasks: "either involves many nodes or many attributes".
  std::size_t large_attrs_min = 20, large_attrs_max = 60;
  std::size_t large_nodes_min = 40, large_nodes_max = 160;

  /// If true (default), task attributes are drawn from the union of the
  /// selected nodes' observable sets so every task yields concrete pairs.
  bool draw_from_observable = true;
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(const SystemModel& system, WorkloadConfig config,
                    std::uint64_t seed);

  /// One task with exactly `num_attrs` attributes over `num_nodes` nodes
  /// (both clamped to what the system makes available).
  MonitoringTask make_task(std::size_t num_attrs, std::size_t num_nodes);

  std::vector<MonitoringTask> small_tasks(std::size_t count);
  std::vector<MonitoringTask> large_tasks(std::size_t count);

  const WorkloadConfig& config() const noexcept { return config_; }
  Rng& rng() noexcept { return rng_; }

 private:
  const SystemModel& system_;
  WorkloadConfig config_;
  Rng rng_;
};

/// Statistics about one applied update batch (for adaptation-cost plots).
/// Counts are accurate: a task whose redrawn attribute set lands back on
/// the original is a genuine no-op and counts toward neither field.
struct UpdateBatchStats {
  /// Tasks whose attribute set actually changed (modify_task was invoked).
  std::size_t tasks_modified = 0;
  /// Old attributes genuinely gone after the update (re-drawing an attr the
  /// batch just removed does not count as a replacement).
  std::size_t attrs_replaced = 0;
  /// Structured churn delta of the whole batch: exact dedup-pair changes,
  /// ready for the delta replanning path.
  TaskDelta delta;
};

/// The Fig. 9 dynamic-task emulation: picks `node_fraction` of monitoring
/// nodes (always at least one, so small systems still churn), then for
/// every task touching a picked node replaces `attr_fraction` of its
/// attributes with fresh ones drawn from the universe. Mutates `manager`
/// in place.
UpdateBatchStats apply_update_batch(TaskManager& manager, const SystemModel& system,
                                    std::size_t attr_universe, Rng& rng,
                                    double node_fraction = 0.05,
                                    double attr_fraction = 0.5);

}  // namespace remo
