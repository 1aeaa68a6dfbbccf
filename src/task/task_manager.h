// The task manager (Sec. 2.2): accepts monitoring tasks, removes
// duplicated node-attribute pairs across tasks, and exposes the deduped
// pair set to the planner. Also tracks per-pair update frequencies (the
// maximum across tasks requesting the pair) for the Sec. 6.3 extension.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "cost/system_model.h"
#include "task/pair_set.h"
#include "task/task.h"
#include "task/task_delta.h"

namespace remo {

class TaskManager {
 public:
  /// `filter_observable`: drop (i, j) pairs where node i cannot observe
  /// attribute j in `system` (Definition 1 requires A_t ⊆ ∪ A_i; concrete
  /// pairs only make sense where the attribute is observable).
  explicit TaskManager(const SystemModel* system = nullptr,
                       bool filter_observable = true)
      : system_(system), filter_observable_(filter_observable && system != nullptr) {}

  /// Adds a task; assigns and returns its id (overwriting t.id).
  /// When `delta` is non-null, the mutation's exact dedup-pair delta and
  /// touched task id are merged into it (callers accumulate a batch).
  TaskId add_task(MonitoringTask t, TaskDelta* delta = nullptr);
  /// Removes a task; returns false if the id is unknown.
  bool remove_task(TaskId id, TaskDelta* delta = nullptr);
  /// Replaces the task with `t.id`; returns false if the id is unknown.
  bool modify_task(MonitoringTask t, TaskDelta* delta = nullptr);

  const MonitoringTask* find(TaskId id) const;
  const std::map<TaskId, MonitoringTask>& tasks() const noexcept { return tasks_; }
  std::size_t num_tasks() const noexcept { return tasks_.size(); }

  /// The deduplicated pair set over all current tasks — the planner input.
  /// `num_vertices` sizes the node-id space (monitoring nodes + collector).
  /// Served from the refcounted live-pair index: O(pairs), not
  /// O(tasks × pairs); pairs on nodes ≥ `num_vertices` are skipped.
  PairSet dedup(std::size_t num_vertices) const;

  /// Number of distinct live (node, attr) pairs across all tasks.
  std::size_t live_pair_count() const noexcept { return live_pairs_.size(); }

  /// Update frequency per pair: the maximum frequency over all tasks that
  /// request the pair (a faster task subsumes slower ones for delivery).
  /// Keyed like the pair set; pairs absent from `pairs` are skipped.
  std::map<NodeAttrPair, double> pair_frequencies(const PairSet& pairs) const;

  /// How many raw (taskwise) pairs the current tasks request, before
  /// deduplication — used to report dedup savings.
  std::size_t raw_pair_count() const;

  /// Restrict this manager's ownership to node ids below `num_vertices` —
  /// the shard's node subset under federation (src/federation, DESIGN.md
  /// §12). Once scoped, check_invariants() flags any task node outside
  /// [1, num_vertices): a routed subtask referencing a foreign node means
  /// the shard router misassigned it. 0 (the default) keeps the historic
  /// universe-wide tolerance, where out-of-range nodes are silently
  /// skipped by dedup().
  void set_owned_vertices(std::size_t num_vertices) noexcept {
    owned_vertices_ = num_vertices;
  }

  /// Deep invariant hook (REMO_VALIDATE, DESIGN.md §11): every stored task
  /// carries the id it is keyed by, its attribute/node lists are
  /// sorted-unique (dedup and frequency lookups binary-search them),
  /// next_id_ is past every issued id, the refcounted live-pair index
  /// matches a from-scratch expansion of all tasks, and — when scoped via
  /// set_owned_vertices() — every task node lies in the owned shard
  /// subset. Invoked after every mutating call when validation is
  /// enabled; no-op otherwise.
  void check_invariants() const;

 private:
  /// Adjusts the live-pair refcounts for `t`'s expansion by ±1. Pairs whose
  /// refcount crosses 0↔1 (i.e. that enter or leave the dedup set) are
  /// appended to `added` / `removed` in (node, attr) order.
  void bump_index(const MonitoringTask& t, int dir, std::vector<NodeAttrPair>& added,
                  std::vector<NodeAttrPair>& removed);

  const SystemModel* system_;
  bool filter_observable_;
  std::map<TaskId, MonitoringTask> tasks_;
  /// Refcounted dedup index: how many tasks request each live pair.
  /// Collector and unobservable pairs are excluded exactly like dedup();
  /// node-id range clamping happens at dedup(num_vertices) read time.
  std::map<NodeAttrPair, std::uint32_t> live_pairs_;
  TaskId next_id_ = 1;
  std::size_t owned_vertices_ = 0;  ///< 0 = unscoped (universe-wide)
};

}  // namespace remo
