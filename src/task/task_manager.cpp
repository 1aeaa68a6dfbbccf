#include "task/task_manager.h"

#include <algorithm>

#include "common/check.h"
#include "common/sorted_vector.h"

namespace remo {

const char* to_string(AggType t) noexcept {
  switch (t) {
    case AggType::kHolistic:
      return "HOLISTIC";
    case AggType::kSum:
      return "SUM";
    case AggType::kMax:
      return "MAX";
    case AggType::kMin:
      return "MIN";
    case AggType::kCount:
      return "COUNT";
    case AggType::kAvg:
      return "AVG";
    case AggType::kTopK:
      return "TOPK";
    case AggType::kDistinct:
      return "DISTINCT";
  }
  return "?";
}

const char* to_string(ReliabilityMode m) noexcept {
  switch (m) {
    case ReliabilityMode::kNone:
      return "NONE";
    case ReliabilityMode::kSSDP:
      return "SSDP";
    case ReliabilityMode::kDSDP:
      return "DSDP";
  }
  return "?";
}

void TaskManager::bump_index(const MonitoringTask& t, int dir,
                             std::vector<NodeAttrPair>& added,
                             std::vector<NodeAttrPair>& removed) {
  // t.nodes and t.attrs are sorted-unique, so each pair is visited exactly
  // once and crossing events append in (node, attr) order.
  for (NodeId n : t.nodes) {
    if (n == kCollectorId) continue;
    for (AttrId a : t.attrs) {
      if (filter_observable_ && !system_->observes(n, a)) continue;
      const NodeAttrPair p{n, a};
      if (dir > 0) {
        auto [it, inserted] = live_pairs_.emplace(p, 1);
        if (inserted) {
          added.push_back(p);
        } else {
          ++it->second;
        }
      } else {
        auto it = live_pairs_.find(p);
        REMO_ASSERT(it != live_pairs_.end() && it->second > 0,
                    "live-pair index missing refcount for (n", n, ",a", a,
                    ") while removing task ", t.id);
        if (--it->second == 0) {
          live_pairs_.erase(it);
          removed.push_back(p);
        }
      }
    }
  }
}

TaskId TaskManager::add_task(MonitoringTask t, TaskDelta* delta) {
  t.id = next_id_++;
  sort_unique(t.attrs);
  sort_unique(t.nodes);
  const TaskId id = t.id;
  TaskDelta local;
  bump_index(t, +1, local.pairs.added, local.pairs.removed);
  tasks_.emplace(id, std::move(t));
  if (delta != nullptr) delta->merge(local);
  check_invariants();
  return id;
}

bool TaskManager::remove_task(TaskId id, TaskDelta* delta) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return false;
  TaskDelta local;
  bump_index(it->second, -1, local.pairs.added, local.pairs.removed);
  tasks_.erase(it);
  if (delta != nullptr) delta->merge(local);
  check_invariants();
  return true;
}

bool TaskManager::modify_task(MonitoringTask t, TaskDelta* delta) {
  auto it = tasks_.find(t.id);
  if (it == tasks_.end()) return false;
  sort_unique(t.attrs);
  sort_unique(t.nodes);
  // Decrement the old expansion, then increment the new one: a pair that
  // dips to refcount 0 and comes straight back (requested by both versions
  // as the sole owner) shows up in both crossing lists and cancels below.
  std::vector<NodeAttrPair> raw_added;
  std::vector<NodeAttrPair> raw_removed;
  bump_index(it->second, -1, raw_added, raw_removed);
  bump_index(t, +1, raw_added, raw_removed);
  it->second = std::move(t);
  if (delta != nullptr) {
    TaskDelta local;
    local.pairs.added = set_difference(raw_added, raw_removed);
    local.pairs.removed = set_difference(raw_removed, raw_added);
    delta->merge(local);
  }
  check_invariants();
  return true;
}

void TaskManager::check_invariants() const {
  if (!validation_enabled()) return;
  for (const auto& [id, t] : tasks_) {
    REMO_VALIDATE(t.id == id, "task keyed by id=", id, " carries id=", t.id);
    REMO_VALIDATE(is_sorted_unique(t.attrs),
                  "task ", id, ": attribute list not sorted-unique (",
                  t.attrs.size(), " entries)");
    REMO_VALIDATE(is_sorted_unique(t.nodes), "task ", id,
                  ": node list not sorted-unique (", t.nodes.size(), " entries)");
    REMO_VALIDATE(id < next_id_, "task id=", id,
                  " not below next_id_=", next_id_);
    if (owned_vertices_ > 0) {
      for (NodeId n : t.nodes)
        REMO_VALIDATE(n != kCollectorId && n < owned_vertices_, "task ", id,
                      " references node n", n, " outside the owned shard scope [1, ",
                      owned_vertices_, ") — misrouted subtask?");
    }
  }
  // Cross-check the refcounted live-pair index against a from-scratch
  // expansion: any drift here would silently corrupt every delta the
  // manager emits and every dedup() the planner consumes.
  std::map<NodeAttrPair, std::uint32_t> expected;
  for (const auto& [id, t] : tasks_) {
    for (NodeId n : t.nodes) {
      if (n == kCollectorId) continue;
      for (AttrId a : t.attrs) {
        if (filter_observable_ && !system_->observes(n, a)) continue;
        ++expected[NodeAttrPair{n, a}];
      }
    }
  }
  REMO_VALIDATE(expected == live_pairs_, "live-pair index out of sync: ",
                live_pairs_.size(), " indexed pairs vs ", expected.size(),
                " expanded from ", tasks_.size(), " tasks");
}

const MonitoringTask* TaskManager::find(TaskId id) const {
  auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : &it->second;
}

PairSet TaskManager::dedup(std::size_t num_vertices) const {
  PairSet out(num_vertices);
  for (const auto& [pair, refs] : live_pairs_) {
    if (pair.node >= num_vertices) continue;
    out.add(pair.node, pair.attr);
  }
  return out;
}

std::map<NodeAttrPair, double> TaskManager::pair_frequencies(const PairSet& pairs) const {
  std::map<NodeAttrPair, double> freq;
  for (const auto& [id, t] : tasks_) {
    for (NodeId n : t.nodes) {
      if (n >= pairs.num_vertices()) continue;
      for (AttrId a : t.attrs) {
        if (!pairs.contains(n, a)) continue;
        auto [it, inserted] = freq.emplace(NodeAttrPair{n, a}, t.frequency);
        if (!inserted) it->second = std::max(it->second, t.frequency);
      }
    }
  }
  return freq;
}

std::size_t TaskManager::raw_pair_count() const {
  std::size_t n = 0;
  for (const auto& [id, t] : tasks_) n += t.attrs.size() * t.nodes.size();
  return n;
}

}  // namespace remo
