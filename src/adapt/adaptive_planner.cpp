#include "adapt/adaptive_planner.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <limits>

#include "common/check.h"
#include "common/sorted_vector.h"
#include "planner/evaluator.h"

namespace remo {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Process CPU time (all threads — the evaluation engine's pool included),
// for the planning_cpu_seconds report field. Falls back to std::clock()
// where the POSIX per-process clock is unavailable.
double cpu_seconds_now() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

}  // namespace

const char* to_string(AdaptScheme s) noexcept {
  switch (s) {
    case AdaptScheme::kDirectApply:
      return "DIRECT-APPLY";
    case AdaptScheme::kRebuild:
      return "REBUILD";
    case AdaptScheme::kNoThrottle:
      return "NO-THROTTLE";
    case AdaptScheme::kAdaptive:
      return "ADAPTIVE";
  }
  return "?";
}

AdaptivePlanner::AdaptivePlanner(const SystemModel& system, PlannerOptions options,
                                 AdaptScheme scheme)
    : system_(&system), planner_(system, std::move(options)), scheme_(scheme) {
  obs::Registry& reg = obs::registry_or_global(planner_.options().metrics);
  metrics_.updates = &reg.counter("planner.delta.updates");
  metrics_.replans = &reg.counter("planner.delta.replans");
  metrics_.pairs_changed = &reg.counter("planner.delta.pairs_changed");
  metrics_.replan_seconds =
      &reg.histogram("planner.delta.replan_seconds", obs::Histogram::time_bounds());
}

double AdaptivePlanner::last_adjusted(const std::vector<AttrId>& attrs,
                                      double now) const {
  auto it = adjusted_at_.find(attrs);
  if (it != adjusted_at_.end()) return it->second;
  (void)now;
  return init_time_;
}

void AdaptivePlanner::stamp(const std::vector<AttrId>& attrs, double now) {
  adjusted_at_[attrs] = now;
}

AdaptReport AdaptivePlanner::initialize(const PairSet& pairs, double now) {
  const auto start = std::chrono::steady_clock::now();
  const double cpu_start = cpu_seconds_now();
  AdaptReport report;
  init_time_ = now;
  topology_ = planner_.plan(pairs);
  pairs_ = pairs;
  adjusted_at_.clear();
  for (const auto& e : topology_.entries()) stamp(e.attrs, now);
  report.planning_wall_seconds = seconds_since(start);
  report.planning_cpu_seconds = cpu_seconds_now() - cpu_start;
  report.adaptation_messages = topology_.edges().size();  // all links are new
  report.score = score_of(topology_);
  const EvalStats stats = planner_.last_stats();  // plan() reset the window
  report.candidates_evaluated = stats.evaluations;
  return report;
}

void AdaptivePlanner::adopt(Topology topo, double now) {
  topology_ = std::move(topo);
  for (const auto& e : topology_.entries())
    if (adjusted_at_.find(e.attrs) == adjusted_at_.end()) stamp(e.attrs, now);
}

void AdaptivePlanner::restore(PairSet pairs, Topology topo,
                              std::map<std::vector<AttrId>, double> stamps,
                              double init_time) {
  pairs_ = std::move(pairs);
  topology_ = std::move(topo);
  topology_.set_total_pairs(pairs_.total_pairs());
  adjusted_at_ = std::move(stamps);
  init_time_ = init_time;
  // The evaluation engine's pair view resyncs in full on the next
  // adaptation (synced_pairs() is null on a fresh planner); an items
  // template is a pure function of the pair set, so a cold cache cannot
  // make a restored planner diverge from the captured one.
  REMO_VALIDATE(topology_.validate(*system_),
                "restored topology violates capacity (", topology_.num_trees(),
                " trees, ", pairs_.total_pairs(), " pairs)");
}

std::vector<std::vector<AttrId>> AdaptivePlanner::direct_apply(
    const PairSetDelta& delta, double now) {
  if (delta.empty()) return {};
  // pairs_ already holds the post-delta set; universe entry/exit follows
  // from per-attribute count arithmetic over the delta alone
  // (old_count = new_count − added + removed), O(|delta| log U) instead of
  // materializing and diffing two full universes.
  const auto changed_attrs = delta.affected_attrs();
  std::vector<AttrId> removed_attrs;
  std::vector<AttrId> added_attrs;
  {
    std::vector<std::size_t> added_n(changed_attrs.size(), 0);
    std::vector<std::size_t> removed_n(changed_attrs.size(), 0);
    auto slot = [&changed_attrs](AttrId a) {
      return static_cast<std::size_t>(
          std::lower_bound(changed_attrs.begin(), changed_attrs.end(), a) -
          changed_attrs.begin());
    };
    for (const auto& p : delta.added) ++added_n[slot(p.attr)];
    for (const auto& p : delta.removed) ++removed_n[slot(p.attr)];
    for (std::size_t i = 0; i < changed_attrs.size(); ++i) {
      const std::size_t new_count = pairs_.attr_count(changed_attrs[i]);
      const std::size_t old_count = new_count - added_n[i] + removed_n[i];
      if (old_count > 0 && new_count == 0) removed_attrs.push_back(changed_attrs[i]);
      if (old_count == 0 && new_count > 0) added_attrs.push_back(changed_attrs[i]);
    }
  }

  const PairSet& new_pairs = pairs_;  // post-delta view for the patching below

  // 1. Structural changes: a tree whose attribute set shrinks (an
  //    attribute left the universe) must be rebuilt; brand-new attributes
  //    get singleton trees. Everything else is patched in place below.
  std::vector<std::size_t> victims;
  std::vector<std::vector<AttrId>> new_sets;
  for (std::size_t i = 0; i < topology_.entries().size(); ++i) {
    const auto& attrs = topology_.entries()[i].attrs;
    if (!sets_intersect(attrs, removed_attrs)) continue;
    victims.push_back(i);
    adjusted_at_.erase(attrs);  // identity follows the (possibly shrunk) set
    auto kept = set_difference(attrs, removed_attrs);
    if (!kept.empty()) new_sets.push_back(std::move(kept));
  }
  for (AttrId a : added_attrs) {
    new_sets.push_back({a});
    stamp({a}, now);  // a brand-new tree starts its throttle window now
  }
  if (!victims.empty() || !new_sets.empty()) {
    // The evaluator's cache is synced to pairs_ by run_adaptation before
    // we get here, so rebuilds read the items templates it still holds.
    topology_ = rebuild_trees(topology_, *system_, pairs_, victims, new_sets,
                              planner_.options().attr_specs,
                              planner_.options().allocation,
                              planner_.options().tree, planner_.evaluator().cache());
  }

  // 2. Pair-level changes: patch surviving trees with minimum topology
  //    impact — update member nodes' local counts in place, attach nodes
  //    that newly monitor a tree's attribute, and leave everything else
  //    untouched. This is what makes DIRECT-APPLY cheap in adaptation
  //    messages (and what lets its quality decay over time, Fig. 9).
  std::vector<std::vector<AttrId>> touched;
  for (auto& entry : topology_.mutable_entries()) {
    if (!sets_intersect(entry.attrs, changed_attrs)) continue;
    // Nodes with a changed pair on this tree's attributes.
    std::vector<NodeId> nodes;
    for (const auto& pr : delta.added)
      if (set_contains(entry.attrs, pr.attr)) nodes.push_back(pr.node);
    for (const auto& pr : delta.removed)
      if (set_contains(entry.attrs, pr.attr)) nodes.push_back(pr.node);
    sort_unique(nodes);
    if (nodes.empty()) continue;

    MonitoringTree& tree = entry.tree;
    // Bind the in-place patch to *global* budgets: the tree's stored
    // allocations date from build time, but the node may since have taken
    // work in other trees. Clamping avail to capacity minus other-tree
    // usage makes the within-tree feasibility checks exactly the global
    // constraint. The clamp never goes below current usage: bound is at
    // least the usage, and so is every stored budget (rebuild budgets are
    // floored at 0, so a tree built after repair spent the collector's
    // planning headroom gets 0, not a negative budget).
    auto clamp = [&](NodeId v) {
      const Capacity other = topology_.node_usage(v) - tree.usage(v);
      const Capacity bound =
          std::max(tree.usage(v), system_->capacity(v) - other);
      tree.set_avail(v, std::min(tree.avail(v), bound));
    };
    for (NodeId v : tree.members()) clamp(v);
    clamp(kCollectorId);
    for (NodeId n : nodes) {
      std::vector<std::uint32_t> desired(entry.attrs.size());
      bool any = false;
      for (std::size_t m = 0; m < entry.attrs.size(); ++m) {
        desired[m] = new_pairs.contains(n, entry.attrs[m]) ? 1u : 0u;
        any |= desired[m] != 0;
      }
      if (tree.contains(n)) {
        // Removals are always feasible; apply them first so stale values
        // stop flowing even when the additions do not fit.
        // remo-lint: allow(span-store) copied into old_local below before any mutation; old_span is dead once update_local runs
        const auto old_span = tree.local_counts(n);
        const std::vector<std::uint32_t> old_local(old_span.begin(),
                                                   old_span.end());
        std::vector<std::uint32_t> shrunk(entry.attrs.size());
        for (std::size_t m = 0; m < entry.attrs.size(); ++m)
          shrunk[m] = std::min(old_local[m], desired[m]);
        if (shrunk != old_local) tree.update_local(n, shrunk);
        if (desired != shrunk) tree.update_local(n, desired);  // best effort
      } else if (any) {
        // New member: attach at the shallowest vertex with capacity,
        // spending only this node's remaining global budget.
        BuildItem item{n, desired,
                       system_->capacity(n) - topology_.node_usage(n)};
        NodeId best = kNoNode;
        std::size_t best_depth = 0;
        auto consider = [&](NodeId v) {
          if (!tree.can_attach(item, v)) return;
          const std::size_t d = tree.depth(v);
          if (best == kNoNode || d < best_depth) {
            best = v;
            best_depth = d;
          }
        };
        consider(kCollectorId);
        for (NodeId v : tree.members()) consider(v);
        if (best != kNoNode) tree.attach(item, best);
      }
    }
    // Refresh the entry's accounting.
    entry.collected_pairs = tree.collected_pairs();
    entry.offered_pairs = 0;
    for (NodeId n : new_pairs.nodes_with_any(entry.attrs))
      entry.offered_pairs += new_pairs.count_at(n, entry.attrs);
    touched.push_back(entry.attrs);
  }

  // Rebuilt/new trees also need their offered counts refreshed against the
  // new pair set (rebuild_trees computed them already) and join T.
  for (const auto& s : new_sets) touched.push_back(s);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

void AdaptivePlanner::optimize(const PairSet& pairs,
                               std::vector<std::vector<AttrId>> rebuilt, double now,
                               AdaptReport& report) {
  const auto& opts = planner_.options();
  // run_adaptation already synced the evaluator's pair view (and evicted
  // exactly the items templates the delta touched) before direct_apply ran.
  auto in_rebuilt = [&rebuilt](const std::vector<AttrId>& attrs) {
    return std::find(rebuilt.begin(), rebuilt.end(), attrs) != rebuilt.end();
  };

  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    const Partition p = topology_.partition();  // sets in entry order
    const std::size_t k = p.num_sets();
    if (k == 0) return;

    // Enumerate candidate operations involving at least one tree in T,
    // using the planner's topology-aware gain estimates, then re-rank by
    // cost effectiveness: estimated benefit per estimated adaptation cost
    // (lower bound on the edges the operation would rewire, Sec. 4.1).
    std::vector<bool> mask(k);
    for (std::size_t i = 0; i < k; ++i) mask[i] = in_rebuilt(p.set(i));
    auto ranked = rank_topology_augmentations(topology_, pairs, system_->cost(),
                                              opts.conflicts, 0, &mask);
    std::vector<Augmentation> merges, splits;
    for (Augmentation aug : ranked) {
      double adapt_cost = 1.0;
      if (aug.kind == AugmentKind::kMerge) {
        adapt_cost += static_cast<double>(std::min(
            topology_.entries()[aug.set_a].tree.size(),
            topology_.entries()[aug.set_b].tree.size()));
      } else {
        adapt_cost += static_cast<double>(pairs.attr_count(aug.attr));
      }
      aug.estimated_gain /= adapt_cost;  // gain now means effectiveness
      (aug.kind == AugmentKind::kMerge ? merges : splits).push_back(aug);
    }
    auto by_effectiveness = [](const Augmentation& a, const Augmentation& b) {
      return a.estimated_gain > b.estimated_gain;
    };
    std::stable_sort(merges.begin(), merges.end(), by_effectiveness);
    std::stable_sort(splits.begin(), splits.end(), by_effectiveness);

    // Evaluate each list in rank order until the first valid (improving)
    // operation (Sec. 4.1), then keep the better of the two. The engine
    // evaluates each list's prefix concurrently; the winner is the one a
    // serial scan would commit.
    const PlanScore current = score_of(topology_);
    PlanEvaluator& engine = planner_.evaluator();
    auto best_merge =
        engine.first_improving(topology_, pairs, merges, current, opts.max_candidates);
    auto best_split =
        engine.first_improving(topology_, pairs, splits, current, opts.max_candidates);
    std::optional<PlanEvaluator::Result> chosen;
    const Augmentation* chosen_aug = nullptr;
    if (best_merge && (!best_split || improves(best_merge->score, best_split->score))) {
      chosen_aug = &merges[best_merge->index];
      chosen = std::move(best_merge);
    } else if (best_split) {
      chosen_aug = &splits[best_split->index];
      chosen = std::move(best_split);
    }
    if (!chosen) return;
    const AugmentationFootprint fp = footprint(p, *chosen_aug);

    if (scheme_ == AdaptScheme::kAdaptive) {
      // Cost-benefit throttling (Sec. 4.2): Threshold(A_m) =
      // (T_cur - min T_adj,i) * (C_cur - C_adj). The paper's efficiency
      // term (C_cur - C_adj) presumes the operation keeps collected values
      // constant; an operation that *recovers* coverage necessarily pushes
      // more data and would read as negative benefit, so the benefit rate
      // also counts recovered values at their delivery cost (a per value
      // per unit time).
      const double m_adapt =
          static_cast<double>(edge_diff(topology_, chosen->topo));
      double t_min = std::numeric_limits<double>::infinity();
      for (std::size_t v : fp.victims)
        t_min = std::min(t_min, last_adjusted(p.set(v), now));
      const double c_cur = topology_.total_cost();
      const double c_adj = chosen->topo.total_cost();
      const double value_gain =
          system_->cost().per_value *
          (static_cast<double>(chosen->score.collected) -
           static_cast<double>(score_of(topology_).collected));
      const double gain_rate = std::max(0.0, c_cur - c_adj) + std::max(0.0, value_gain);
      const double threshold = (now - t_min) * gain_rate;
      if (!(m_adapt < threshold)) {
        ++report.operations_throttled;
        return;  // not cost-effective: terminate immediately (Sec. 4.2)
      }
    }

    // Adopt the operation; the new sets join T and restart their windows.
    for (std::size_t v : fp.victims) adjusted_at_.erase(p.set(v));
    for (const auto& s : fp.new_sets) {
      stamp(s, now);
      if (std::find(rebuilt.begin(), rebuilt.end(), s) == rebuilt.end())
        rebuilt.push_back(s);
    }
    topology_ = std::move(chosen->topo);
    ++report.operations_applied;
  }
}

AdaptReport AdaptivePlanner::run_adaptation(const PairSetDelta& delta, double now) {
  const auto start = std::chrono::steady_clock::now();
  const double cpu_start = cpu_seconds_now();
  AdaptReport report;
  report.pairs_changed = delta.size();
  const Topology before = topology_;
  EvalStats stats_base = planner_.last_stats();

  // Advance the evaluation engine's pair view *before* any rebuild so
  // direct_apply's tree rebuilds read current items templates, and so only
  // templates the delta touches are evicted. apply_pairs_delta is O(|delta|); the
  // full sync only runs on the first call after construction.
  PlanEvaluator& engine = planner_.evaluator();
  if (scheme_ != AdaptScheme::kRebuild) {
    if (engine.synced_pairs() == nullptr) {
      engine.sync_pairs(pairs_);
    } else {
      engine.apply_pairs_delta(delta);
      if (validation_enabled()) {
        REMO_VALIDATE(*engine.synced_pairs() == pairs_,
                      "evaluation engine's pair view drifted from the adaptive "
                      "planner's after an incremental advance of ", delta.size(),
                      " pairs");
      }
    }
  }

  switch (scheme_) {
    case AdaptScheme::kRebuild: {
      topology_ = planner_.plan(pairs_);
      adjusted_at_.clear();
      for (const auto& e : topology_.entries()) stamp(e.attrs, now);
      break;
    }
    case AdaptScheme::kDirectApply: {
      direct_apply(delta, now);
      break;
    }
    case AdaptScheme::kNoThrottle:
    case AdaptScheme::kAdaptive: {
      auto rebuilt = direct_apply(delta, now);
      optimize(pairs_, std::move(rebuilt), now, report);
      break;
    }
  }

  topology_.set_total_pairs(pairs_.total_pairs());
  report.planning_wall_seconds = seconds_since(start);
  report.planning_cpu_seconds = cpu_seconds_now() - cpu_start;
  report.adaptation_messages = edge_diff(before, topology_);
  report.score = score_of(topology_);
  if (scheme_ == AdaptScheme::kRebuild) stats_base = EvalStats{};  // plan() reset
  const EvalStats stats = planner_.last_stats();
  report.candidates_evaluated = stats.evaluations - stats_base.evaluations;

  if (!delta.empty()) {
    metrics_.replans->add(1);
    metrics_.pairs_changed->add(delta.size());
    metrics_.replan_seconds->observe(report.planning_wall_seconds);
  }
  return report;
}

AdaptReport AdaptivePlanner::apply_update(const PairSet& new_pairs, double now) {
  metrics_.updates->add(1);
  PairSetDelta delta = diff(pairs_, new_pairs);
  pairs_ = new_pairs;
  return run_adaptation(delta, now);
}

AdaptReport AdaptivePlanner::apply_delta(const TaskDelta& delta, double now) {
  metrics_.updates->add(1);
  PairSetDelta scoped = clamp_to_vertices(delta.pairs, pairs_.num_vertices());
  ::remo::apply_delta(pairs_, scoped);  // the free pair-set helper, not this method
  return run_adaptation(scoped, now);
}

}  // namespace remo
