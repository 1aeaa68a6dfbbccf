#include "planner/planner.h"

#include <algorithm>
#include <tuple>

#include "common/check.h"
#include "common/sorted_vector.h"
#include "obs/trace.h"
#include "planner/evaluator.h"

namespace remo {

namespace {
constexpr double kCostEps = 1e-9;

/// What the gain estimates read from the pair set, gathered in one pass
/// over it per ranking: per partition set, the nodes monitoring any of its
/// attributes (ascending), and per attribute (by position in its set), the
/// nodes monitoring it and those of them monitoring another attribute of
/// the set too. The same integers nodes_with / nodes_with_any give.
struct SetNodeLists {
  std::vector<std::vector<NodeId>> nodes;
  std::vector<std::vector<std::size_t>> attr_nodes, shared_nodes;

  SetNodeLists(const Partition& p, const PairSet& pairs) {
    const std::size_t k = p.num_sets();
    nodes.resize(k);
    attr_nodes.resize(k);
    shared_nodes.resize(k);
    // (attribute, set, position in set), sorted by attribute.
    std::vector<std::tuple<AttrId, std::size_t, std::size_t>> where;
    for (std::size_t i = 0; i < k; ++i) {
      attr_nodes[i].assign(p.set(i).size(), 0);
      shared_nodes[i].assign(p.set(i).size(), 0);
      for (std::size_t pos = 0; pos < p.set(i).size(); ++pos)
        where.emplace_back(p.set(i)[pos], i, pos);
    }
    std::sort(where.begin(), where.end());
    std::vector<std::size_t> hits(k, 0);  // node's attributes per set
    std::vector<std::pair<std::size_t, std::size_t>> found;  // (set, pos)
    for (NodeId n = 0; n < pairs.num_vertices(); ++n) {
      found.clear();
      for (AttrId a : pairs.attrs_of(n)) {
        const auto it = std::lower_bound(
            where.begin(), where.end(), a,
            [](const auto& w, AttrId x) { return std::get<0>(w) < x; });
        if (it == where.end() || std::get<0>(*it) != a) continue;
        found.emplace_back(std::get<1>(*it), std::get<2>(*it));
        if (hits[std::get<1>(*it)]++ == 0) nodes[std::get<1>(*it)].push_back(n);
      }
      for (const auto& [set, pos] : found) {
        ++attr_nodes[set][pos];
        if (hits[set] >= 2) ++shared_nodes[set][pos];
      }
      for (const auto& f : found) hits[f.first] = 0;
    }
  }
};

}  // namespace

const char* to_string(PartitionScheme s) noexcept {
  switch (s) {
    case PartitionScheme::kSingletonSet:
      return "SINGLETON-SET";
    case PartitionScheme::kOneSet:
      return "ONE-SET";
    case PartitionScheme::kRemo:
      return "REMO";
  }
  return "?";
}

PlanScore score_of(const Topology& topo) {
  return PlanScore{topo.collected_pairs(), topo.total_cost()};
}

bool improves(const PlanScore& a, const PlanScore& b) {
  if (a.collected != b.collected) return a.collected > b.collected;
  return a.cost + kCostEps < b.cost;
}

std::vector<Augmentation> rank_topology_augmentations(
    const Topology& topo, const PairSet& pairs, const CostModel& cost,
    const ConflictConstraints& conflicts, std::size_t max_candidates,
    const std::vector<bool>* must_involve, bool starvation_bonus) {
  const auto& entries = topo.entries();
  const std::size_t k = entries.size();
  auto involved = [&](std::size_t i) {
    return must_involve == nullptr || (i < must_involve->size() && (*must_involve)[i]);
  };
  std::vector<double> starved(k), collected(k);
  for (std::size_t i = 0; i < k; ++i) {
    starved[i] = static_cast<double>(entries[i].offered_pairs -
                                     entries[i].collected_pairs);
    collected[i] = static_cast<double>(entries[i].collected_pairs);
  }

  const Partition p = topo.partition();  // sets in entry order
  const SetNodeLists lists(p, pairs);
  std::vector<Augmentation> out;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      if (!involved(i) && !involved(j)) continue;
      if (conflicts.blocks_merge(p.set(i), p.set(j))) continue;
      Augmentation a;
      a.kind = AugmentKind::kMerge;
      a.set_a = i;
      a.set_b = j;
      const double recoverable =
          starvation_bonus
              ? std::min(starved[i] + starved[j], collected[i] + collected[j])
              : 0.0;
      a.estimated_gain =
          estimate_merge_gain(intersection_size(lists.nodes[i], lists.nodes[j]),
                              cost) +
          cost.per_message * recoverable;
      out.push_back(a);
    }
    if (involved(i) && p.set(i).size() >= 2) {
      for (std::size_t pos = 0; pos < p.set(i).size(); ++pos) {
        Augmentation a;
        a.kind = AugmentKind::kSplit;
        a.set_a = i;
        a.attr = p.set(i)[pos];
        // A split's upside is letting starved members deliver a subset of
        // their attributes; it needs starvation, not released capacity.
        a.estimated_gain =
            estimate_split_gain(lists.attr_nodes[i][pos],
                                lists.shared_nodes[i][pos], cost) +
            (starvation_bonus ? cost.per_message * starved[i] : 0.0);
        out.push_back(a);
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Augmentation& a, const Augmentation& b) {
                     return a.estimated_gain > b.estimated_gain;
                   });
  if (max_candidates > 0 && out.size() > max_candidates) out.resize(max_candidates);
  return out;
}

Planner::Planner(const SystemModel& system, PlannerOptions options)
    : system_(&system),
      options_(std::move(options)),
      evaluator_(std::make_shared<PlanEvaluator>(system, options_)) {}

std::size_t Planner::last_evaluations() const noexcept {
  return evaluator_->stats().evaluations;
}

EvalStats Planner::last_stats() const { return evaluator_->stats(); }

void Planner::check_invariants(const Topology& topo, const PairSet& pairs) const {
  if (!validation_enabled()) return;  // skip the partition materialization
  // Scope: the planner owns exactly its SystemModel's node subset. Under
  // federation that is one shard's nodes in local ids, not the global
  // universe — a member outside [0, num_vertices) means the shard router
  // leaked a foreign node into this core (and would otherwise surface as
  // an opaque out_of_range throw inside validate()).
  for (const auto& entry : topo.entries())
    for (NodeId m : entry.tree.members())
      REMO_VALIDATE(m < system_->num_vertices(), "topology member n", m,
                    " outside this planner's node scope (", system_->num_vertices(),
                    " vertices; shard-local planners own only their subset)");
  REMO_VALIDATE(topo.validate(*system_),
                "planner topology violates capacity constraints (", topo.num_trees(),
                " trees, ", topo.collected_pairs(), " collected pairs)");
  const Partition p = topo.partition();
  REMO_VALIDATE(p.valid_over(pairs.attribute_universe()),
                "planner partition is not a partition of the attribute universe: ",
                p.to_string());
  REMO_VALIDATE(options_.conflicts.satisfied_by(p),
                "planner partition co-locates conflicting attributes: ",
                p.to_string());
}

Topology Planner::build_for_partition(const PairSet& pairs, const Partition& p) const {
  evaluator_->sync_pairs(pairs);
  Topology topo = evaluator_->build_full(pairs, p);
  check_invariants(topo, pairs);
  return topo;
}

bool Planner::improve_once(Topology& topo, const PairSet& pairs) const {
  const obs::Span span("planner.iteration");
  const auto candidates = rank_topology_augmentations(
      topo, pairs, system_->cost(), options_.conflicts, options_.max_candidates,
      nullptr, options_.starvation_ranking);
  const PlanScore current = score_of(topo);
  evaluator_->sync_pairs(pairs);
  // Evaluate the whole (truncated) candidate list and keep the best
  // improvement: under tight capacities the estimates are noisy enough
  // that first-improvement can latch onto a marginal merge and converge
  // prematurely. Both commit rules are deterministic regardless of the
  // engine's concurrency — ties break by candidate rank.
  std::optional<PlanEvaluator::Result> best =
      options_.best_of_candidates
          ? evaluator_->best_improving(topo, pairs, candidates, current)
          : evaluator_->first_improving(topo, pairs, candidates, current,
                                        candidates.size());

  // Escape hatch from capacity-hogging layouts: when no augmentation
  // improves, try a full fair-share re-layout of the unchanged partition
  // before declaring convergence. This frees shared capacity that an
  // early-built tree hoarded (demand-driven allocation is
  // first-come-first-served) without changing the partition. Evaluated
  // only as a fallback — a full forest build per iteration would dominate
  // planning time.
  if (!best && options_.relayout_escape) {
    Topology relayout = evaluator_->build_full(pairs, topo.partition());
    const PlanScore s = score_of(relayout);
    if (improves(s, current))
      best = PlanEvaluator::Result{std::move(relayout), s, 0};
  }

  if (!best) return false;
  topo = std::move(best->topo);
  check_invariants(topo, pairs);
  return true;
}

Topology Planner::plan(const PairSet& pairs) const {
  const obs::Span span("planner.plan");
  evaluator_->reset_stats();
  evaluator_->sync_pairs(pairs);
  const auto universe = pairs.attribute_universe();
  Partition initial = options_.partition_scheme == PartitionScheme::kOneSet
                          ? Partition::one_set(universe)
                          : Partition::singleton(universe);
  Topology topo = evaluator_->build_full(pairs, initial);
  check_invariants(topo, pairs);
  if (options_.partition_scheme != PartitionScheme::kRemo) return topo;

  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter)
    if (!improve_once(topo, pairs)) break;

  // The search hill-climbs from SINGLETON-SET; the opposite endpoint of
  // the partition lattice is cheap to evaluate directly and guards against
  // the climb stalling in a local optimum below ONE-SET (both endpoints
  // are members of the search space, so REMO dominates both baselines by
  // construction). With conflict constraints the coarsest legal partition
  // is the greedy coloring instead (one group per "path" for SSDP/DSDP).
  if (options_.endpoint_guard && !universe.empty()) {
    Partition coarse = options_.conflicts.empty()
                           ? Partition::one_set(universe)
                           : [&] {
                               std::vector<std::vector<AttrId>> groups;
                               for (AttrId a : universe) {
                                 bool placed = false;
                                 for (auto& g : groups) {
                                   bool ok = true;
                                   for (AttrId b : g)
                                     if (options_.conflicts.conflicts(a, b)) ok = false;
                                   if (ok) {
                                     g.push_back(a);
                                     placed = true;
                                     break;
                                   }
                                 }
                                 if (!placed) groups.push_back({a});
                               }
                               return Partition(std::move(groups));
                             }();
    Topology coarse_topo = evaluator_->build_full(pairs, coarse);
    if (improves(score_of(coarse_topo), score_of(topo))) {
      topo = std::move(coarse_topo);
      for (std::size_t iter = 0; iter < options_.max_iterations; ++iter)
        if (!improve_once(topo, pairs)) break;
    }
  }
  check_invariants(topo, pairs);
  return topo;
}

}  // namespace remo
