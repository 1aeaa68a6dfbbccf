// Snapshot/restore of the federated monitoring system (DESIGN.md §14,
// `ctest -L service`): a restored system is bit-identical to the captured
// one — same collected pairs, same status roll-up, byte-equal forest
// digraphs — and *continues* bit-identically under further churn; two
// identical runs capture byte-equal images. Plus the generation-counter
// memoization contract both status() paths ride on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sorted_vector.h"
#include "core/monitoring_system.h"
#include "federation/federated_system.h"
#include "obs/metrics.h"
#include "service/snapshot.h"
#include "task/workload.h"

namespace remo::service {
namespace {

const CostModel kCost{10.0, 1.0};

PlannerOptions quick_options() {
  PlannerOptions o;
  o.partition_scheme = PartitionScheme::kRemo;
  o.max_candidates = 4;
  o.max_iterations = 8;
  return o;
}

SystemModel make_model(std::size_t n, std::size_t universe,
                       std::uint64_t seed) {
  SystemModel model(n, 300.0, kCost);
  model.set_collector_capacity(16.0 * static_cast<double>(n));
  Rng attr_rng{seed};
  model.assign_random_attributes(universe, 6, attr_rng);
  return model;
}

federation::FederationOptions fed_options(std::size_t shards,
                                          obs::Registry* registry) {
  federation::FederationOptions o;
  o.num_shards = shards;
  o.metrics = registry;
  o.shard.planner = quick_options();
  return o;
}

void expect_same_state(federation::FederatedMonitoringSystem& a,
                       federation::FederatedMonitoringSystem& b, double now,
                       const std::string& context) {
  EXPECT_EQ(a.collected_pairs(now), b.collected_pairs(now)) << context;
  EXPECT_EQ(a.export_dot(now), b.export_dot(now)) << context;
  const auto sa = a.status(now), sb = b.status(now);
  EXPECT_EQ(sa.tasks, sb.tasks) << context;
  EXPECT_EQ(sa.pairs, sb.pairs) << context;
  EXPECT_EQ(sa.collected, sb.collected) << context;
  EXPECT_EQ(sa.coverage, sb.coverage) << context;
  EXPECT_EQ(sa.trees, sb.trees) << context;
  EXPECT_EQ(sa.message_volume, sb.message_volume) << context;
}

TEST(Snapshot, RestoredFederationContinuesBitIdentically) {
  for (std::size_t shards : {1u, 2u}) {
    const std::size_t universe = 12;
    const SystemModel model = make_model(24, universe, 11);

    obs::Registry reg_a;
    federation::FederatedMonitoringSystem a(model, fed_options(shards, &reg_a));

    WorkloadGenerator gen(model, WorkloadConfig{.attr_universe = universe}, 17);
    std::vector<MonitoringTask> tasks = gen.small_tasks(8);
    std::vector<TaskId> ids;
    for (const auto& t : tasks) ids.push_back(a.add_task(t));

    // Warm the planner and churn a little so the throttle bookkeeping
    // (adjustment stamps) is non-trivial at capture.
    Rng churn{23};
    for (std::uint64_t e = 1; e <= 4; ++e) {
      const std::size_t i = churn.below(tasks.size());
      MonitoringTask next = tasks[i];
      next.attrs.clear();
      next.attrs.push_back(static_cast<AttrId>(churn.below(universe)));
      next.attrs.push_back(static_cast<AttrId>(churn.below(universe)));
      sort_unique(next.attrs);
      tasks[i] = next;
      next.id = ids[i];
      ASSERT_TRUE(a.modify_task(next));
      a.status(static_cast<double>(e));
    }

    const double capture_time = 5.0;
    const std::vector<std::uint8_t> image = capture(a, capture_time);

    obs::Registry reg_b;
    federation::FederatedMonitoringSystem b(model, fed_options(shards, &reg_b));
    ASSERT_TRUE(restore(image, b)) << "K=" << shards;

    EXPECT_EQ(a.next_task_id(), b.next_task_id());
    EXPECT_EQ(a.num_tasks(), b.num_tasks());
    expect_same_state(a, b, capture_time,
                      "after restore, K=" + std::to_string(shards));

    // Continuation: identical churn on both sides stays byte-equal —
    // including the adaptive throttle's apply-vs-rebuild decisions, which
    // depend on the restored stamps.
    for (std::uint64_t e = 6; e <= 12; ++e) {
      const double now = static_cast<double>(e);
      const std::size_t i = churn.below(tasks.size());
      MonitoringTask next = tasks[i];
      next.attrs.clear();
      next.attrs.push_back(static_cast<AttrId>(churn.below(universe)));
      sort_unique(next.attrs);
      tasks[i] = next;
      next.id = ids[i];
      ASSERT_TRUE(a.modify_task(next));
      ASSERT_TRUE(b.modify_task(next));
      expect_same_state(a, b, now,
                        "continuation epoch " + std::to_string(e) +
                            ", K=" + std::to_string(shards));
    }

    // New tasks keep getting the same ids on both sides.
    MonitoringTask fresh = gen.small_tasks(1).front();
    EXPECT_EQ(a.add_task(fresh), b.add_task(fresh));
    expect_same_state(a, b, 13.0, "after post-restore add");
  }
}

// A snapshot holds plan state only — nothing measured — so two systems
// built and driven identically capture byte-equal images.
TEST(Snapshot, IdenticalRunsCaptureByteEqualImages) {
  for (std::size_t shards : {1u, 2u}) {
    const std::size_t universe = 12;
    const SystemModel model = make_model(24, universe, 11);
    const auto run = [&]() {
      obs::Registry registry;
      federation::FederatedMonitoringSystem sys(model, fed_options(shards, &registry));
      WorkloadGenerator gen(model, WorkloadConfig{.attr_universe = universe}, 17);
      std::vector<MonitoringTask> tasks = gen.small_tasks(8);
      std::vector<TaskId> ids;
      for (const auto& t : tasks) ids.push_back(sys.add_task(t));
      Rng churn{23};
      for (std::uint64_t e = 1; e <= 12; ++e) {
        const std::size_t i = churn.below(tasks.size());
        MonitoringTask next = tasks[i];
        next.attrs.clear();
        next.attrs.push_back(static_cast<AttrId>(churn.below(universe)));
        next.attrs.push_back(static_cast<AttrId>(churn.below(universe)));
        sort_unique(next.attrs);
        tasks[i] = next;
        next.id = ids[i];
        EXPECT_TRUE(sys.modify_task(next));
        sys.status(static_cast<double>(e));
      }
      EXPECT_GT(sys.status(13.0).delta_applies, 0u);
      return capture(sys, 13.0);
    };
    EXPECT_EQ(run(), run()) << "K=" << shards;
  }
}

TEST(Snapshot, MalformedImagesAreRejectedNotMisparsed) {
  const SystemModel model = make_model(16, 10, 3);
  obs::Registry reg_a, reg_b;
  federation::FederatedMonitoringSystem a(model, fed_options(1, &reg_a));
  WorkloadGenerator gen(model, WorkloadConfig{.attr_universe = 10}, 5);
  for (auto& t : gen.small_tasks(4)) a.add_task(std::move(t));
  a.status(1.0);
  const std::vector<std::uint8_t> image = capture(a, 1.0);

  federation::FederatedMonitoringSystem b(model, fed_options(1, &reg_b));
  // Wrong magic.
  std::vector<std::uint8_t> bad = image;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(restore(bad, b));
  // Record frame truncated before its declared payload length.
  std::vector<std::uint8_t> truncated(image.begin(), image.begin() + 8);
  EXPECT_FALSE(restore(truncated, b));
  // Not a snapshot record.
  wire::Writer w;
  wire::begin_stream(w);
  wire::append_record(w, wire::RecordType::kStatus, {});
  EXPECT_FALSE(restore(w.buffer(), b));
  // The intact image still restores (b was left untouched by the failures).
  EXPECT_TRUE(restore(image, b));
}

// ---------------------------------------------------------------------------
// Generation-counter memoization (the status() recompute fix): readers see
// a stable counter across pure reads and a strictly advancing one across
// mutations — the invariant both status() caches and the daemon's
// collected-pairs cache rely on.

TEST(Generation, CoreCounterAdvancesOnlyOnMutation) {
  const SystemModel model = make_model(16, 10, 7);
  MonitoringSystemOptions options;
  options.planner = quick_options();
  MonitoringSystem sys(model, options);

  WorkloadGenerator gen(model, WorkloadConfig{.attr_universe = 10}, 9);
  std::vector<MonitoringTask> tasks = gen.small_tasks(4);
  std::vector<TaskId> ids;
  for (const auto& t : tasks) ids.push_back(sys.add_task(t));

  const auto s1 = sys.status(1.0);
  const std::uint64_t gen1 = sys.generation();
  // Pure reads: same answer, same generation — the memo is serving them.
  const auto s2 = sys.status(1.0);
  EXPECT_EQ(sys.generation(), gen1);
  EXPECT_EQ(s1.pairs, s2.pairs);
  EXPECT_EQ(s1.coverage, s2.coverage);
  EXPECT_EQ(s1.message_volume, s2.message_volume);

  MonitoringTask next = tasks[0];
  next.id = ids[0];
  next.attrs.assign(1, static_cast<AttrId>(3));
  ASSERT_TRUE(sys.modify_task(next));
  sys.status(2.0);
  EXPECT_GT(sys.generation(), gen1);
}

TEST(Generation, FederationCounterSpansRoutesAndShards) {
  const SystemModel model = make_model(24, 10, 7);
  obs::Registry registry;
  federation::FederatedMonitoringSystem fed(model, fed_options(2, &registry));

  WorkloadGenerator gen(model, WorkloadConfig{.attr_universe = 10}, 9);
  std::vector<MonitoringTask> tasks = gen.small_tasks(6);
  std::vector<TaskId> ids;
  for (const auto& t : tasks) ids.push_back(fed.add_task(t));

  fed.status(1.0);
  const std::uint64_t gen1 = fed.generation();
  fed.status(1.0);
  fed.collected_pairs(1.0);
  EXPECT_EQ(fed.generation(), gen1) << "reads must not advance the counter";

  ASSERT_TRUE(fed.remove_task(ids.back()));
  fed.status(2.0);
  EXPECT_GT(fed.generation(), gen1);
}

}  // namespace
}  // namespace remo::service
