// The monitored system: n monitoring nodes plus the central collector,
// each with a resource capacity b_i and a set of locally observable
// attributes A_i (Sec. 2.3).
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "cost/cost_model.h"

namespace remo {

class SystemModel {
 public:
  /// Builds a system of `num_nodes` monitoring nodes (ids 1..num_nodes)
  /// plus the collector (id 0). All capacities start at `default_capacity`.
  SystemModel(std::size_t num_nodes, Capacity default_capacity,
              CostModel cost = CostModel{});

  std::size_t num_nodes() const noexcept { return num_nodes_; }
  /// Total node count including the collector.
  std::size_t num_vertices() const noexcept { return num_nodes_ + 1; }

  const CostModel& cost() const noexcept { return cost_; }

  Capacity capacity(NodeId id) const { return capacity_.at(id); }
  void set_capacity(NodeId id, Capacity b) { capacity_.at(id) = b; }
  void set_collector_capacity(Capacity b) { capacity_.at(kCollectorId) = b; }

  /// Attributes locally observable at `id` (sorted, unique).
  const std::vector<AttrId>& observable(NodeId id) const { return observable_.at(id); }
  /// Replaces the observable set; input is sorted and deduplicated.
  void set_observable(NodeId id, std::vector<AttrId> attrs);
  /// True iff attribute `attr` is observable at node `id`.
  bool observes(NodeId id, AttrId attr) const;

  /// All monitoring node ids (1..n), excluding the collector.
  std::vector<NodeId> monitoring_nodes() const;

  /// Assigns every monitoring node a random subset of `attrs_per_node`
  /// attributes drawn from [0, attr_universe) — the synthetic-dataset setup
  /// of Sec. 7 ("we assign a random subset of attributes to each node").
  void assign_random_attributes(std::size_t attr_universe, std::size_t attrs_per_node,
                                Rng& rng);

  /// Perturbs capacities uniformly in [lo_frac, hi_frac] of their current
  /// value, modeling heterogeneous leftover capacity on shared hosts.
  void perturb_capacities(double lo_frac, double hi_frac, Rng& rng);

 private:
  std::size_t num_nodes_;
  CostModel cost_;
  std::vector<Capacity> capacity_;          // indexed by NodeId, [0, n]
  std::vector<std::vector<AttrId>> observable_;  // indexed by NodeId
};

}  // namespace remo
