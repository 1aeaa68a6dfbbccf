// Fig. 9 — "Performance comparison of different adaptation schemes given
// increasing task updating frequencies".
//
// Emulates the paper's dynamic environment: each batch randomly selects 5%
// of monitoring nodes and replaces 50% of their monitored attributes; the
// x-axis is the number of such batches per window of 10 value updates.
// Four schemes: DIRECT-APPLY, REBUILD, NO-THROTTLE, ADAPTIVE.
//
//   (a) planning CPU time
//   (b) adaptation cost as % of total messages
//   (c) total cost (adaptation + monitoring messages) relative to D-A
//   (d) collected values relative to D-A
//
// Expected shapes (Sec. 7.1): CPU — D-A < ADAPTIVE < NO-THROTTLE <<
// REBUILD, with ADAPTIVE flat in update frequency; adaptation share —
// REBUILD highest, ADAPTIVE close to D-A; total cost — REBUILD wins at low
// frequency and inverts at high frequency, ADAPTIVE consistently below
// D-A; collected — ADAPTIVE/NO-THROTTLE above D-A, REBUILD's advantage
// eroding as frequency grows.
#include "bench/bench_support.h"

#include "adapt/adaptive_planner.h"

namespace remo::bench {
namespace {

constexpr CostModel kCost{10.0, 1.0};
constexpr double kWindowEpochs = 10.0;  // value updates per window
constexpr std::size_t kWindows = 12;

struct SchemeTotals {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double adaptation_messages = 0.0;
  double monitoring_messages = 0.0;  // messages × epochs they flowed
  double collected = 0.0;            // pair-values over all windows
  double candidates = 0.0;           // engine: topologies built & scored
};

SchemeTotals run_scheme(AdaptScheme scheme, std::size_t batches_per_window) {
  // Deliberately saturated (coverage < 100%): topology quality then shows
  // up as collected values, exactly as in the paper's setup.
  SystemModel system(60, 120.0, kCost);
  system.set_collector_capacity(480.0);
  Rng attr_rng{3};
  system.assign_random_attributes(24, 8, attr_rng);

  TaskManager manager(&system);
  WorkloadGenerator gen(system, WorkloadConfig{.attr_universe = 24}, 23);
  for (auto& t : gen.small_tasks(25)) manager.add_task(std::move(t));

  PlannerOptions options = planner_options(PartitionScheme::kRemo);
  AdaptivePlanner planner(system, options, scheme);
  planner.initialize(manager.dedup(system.num_vertices()), 0.0);

  Rng churn{17};
  SchemeTotals totals;
  double now = 0.0;
  const double step = kWindowEpochs / static_cast<double>(batches_per_window);
  for (std::size_t w = 0; w < kWindows; ++w) {
    for (std::size_t b = 0; b < batches_per_window; ++b) {
      now += step;
      apply_update_batch(manager, system, 24, churn);
      const auto report =
          planner.apply_update(manager.dedup(system.num_vertices()), now);
      totals.wall_seconds += report.planning_wall_seconds;
      totals.cpu_seconds += report.planning_cpu_seconds;
      totals.adaptation_messages +=
          static_cast<double>(report.adaptation_messages);
      totals.candidates += static_cast<double>(report.candidates_evaluated);
      // Between this batch and the next, the current topology delivers
      // `step` epochs of monitoring traffic.
      totals.monitoring_messages +=
          static_cast<double>(planner.topology().total_messages()) * step;
      totals.collected +=
          static_cast<double>(planner.topology().collected_pairs()) * step;
    }
  }
  return totals;
}

}  // namespace
}  // namespace remo::bench

int main(int argc, char** argv) {
  remo::bench::init("fig9_adaptation", argc, argv);
  using namespace remo::bench;
  banner("Fig. 9", "adaptation schemes vs task-update frequency");

  const std::vector<std::size_t> frequencies{1, 2, 4, 8, 16};
  const std::vector<remo::AdaptScheme> schemes{
      remo::AdaptScheme::kDirectApply, remo::AdaptScheme::kRebuild,
      remo::AdaptScheme::kNoThrottle, remo::AdaptScheme::kAdaptive};

  // Run everything once, reuse across the four sub-figures.
  std::vector<std::vector<SchemeTotals>> results;  // [freq][scheme]
  for (std::size_t f : frequencies) {
    std::vector<SchemeTotals> row;
    for (auto s : schemes) row.push_back(run_scheme(s, f));
    results.push_back(std::move(row));
  }

  subbanner("Fig. 9a: planning time, wall / CPU (seconds, whole run)");
  {
    remo::Table t({"batches/window", "D-A", "REBUILD", "NO-THROTTLE", "ADAPTIVE"});
    for (std::size_t i = 0; i < frequencies.size(); ++i) {
      t.row().add(static_cast<long long>(frequencies[i]));
      for (std::size_t s = 0; s < schemes.size(); ++s) {
        const auto& r = results[i][s];
        char cell[48];
        std::snprintf(cell, sizeof cell, "%.3f / %.3f", r.wall_seconds,
                      r.cpu_seconds);
        t.add(std::string(cell));
      }
    }
    emit(t);
  }

  subbanner("Fig. 9b: adaptation messages as % of total messages");
  {
    remo::Table t({"batches/window", "D-A", "REBUILD", "NO-THROTTLE", "ADAPTIVE"});
    for (std::size_t i = 0; i < frequencies.size(); ++i) {
      t.row().add(static_cast<long long>(frequencies[i]));
      for (std::size_t s = 0; s < schemes.size(); ++s) {
        const auto& r = results[i][s];
        t.add(100.0 * r.adaptation_messages /
                  (r.adaptation_messages + r.monitoring_messages),
              2);
      }
    }
    emit(t);
  }

  subbanner("Fig. 9c: total cost (adaptation + monitoring messages) vs D-A, %");
  {
    remo::Table t({"batches/window", "D-A", "REBUILD", "NO-THROTTLE", "ADAPTIVE"});
    for (std::size_t i = 0; i < frequencies.size(); ++i) {
      const double base = results[i][0].adaptation_messages +
                          results[i][0].monitoring_messages;
      t.row().add(static_cast<long long>(frequencies[i]));
      for (std::size_t s = 0; s < schemes.size(); ++s) {
        const auto& r = results[i][s];
        t.add(100.0 * (r.adaptation_messages + r.monitoring_messages) / base, 1);
      }
    }
    emit(t);
  }

  subbanner("Fig. 9d: collected values vs D-A, %");
  {
    remo::Table t({"batches/window", "D-A", "REBUILD", "NO-THROTTLE", "ADAPTIVE"});
    for (std::size_t i = 0; i < frequencies.size(); ++i) {
      const double base = results[i][0].collected;
      t.row().add(static_cast<long long>(frequencies[i]));
      for (std::size_t s = 0; s < schemes.size(); ++s)
        t.add(100.0 * results[i][s].collected / base, 1);
    }
    emit(t);
  }

  subbanner("Fig. 9c': messages per collected value vs D-A, % (efficiency)");
  {
    remo::Table t({"batches/window", "D-A", "REBUILD", "NO-THROTTLE", "ADAPTIVE"});
    for (std::size_t i = 0; i < frequencies.size(); ++i) {
      const auto& d = results[i][0];
      const double base =
          (d.adaptation_messages + d.monitoring_messages) / d.collected;
      t.row().add(static_cast<long long>(frequencies[i]));
      for (std::size_t s = 0; s < schemes.size(); ++s) {
        const auto& r = results[i][s];
        t.add(100.0 * ((r.adaptation_messages + r.monitoring_messages) /
                       r.collected) /
                  base,
              1);
      }
    }
    emit(t);
    std::printf(
        "(ADAPTIVE collects more data per message than D-A at every update "
        "frequency)\n");
  }

  subbanner("evaluation engine: candidates scored (whole run)");
  {
    remo::Table t({"batches/window", "D-A", "REBUILD", "NO-THROTTLE", "ADAPTIVE"});
    for (std::size_t i = 0; i < frequencies.size(); ++i) {
      t.row().add(static_cast<long long>(frequencies[i]));
      for (std::size_t s = 0; s < schemes.size(); ++s)
        t.add(static_cast<long long>(results[i][s].candidates));
    }
    emit(t);
  }
  return 0;
}
