#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"

namespace remo::obs {
namespace {

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddReset) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketsValuesByUpperBound) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // ≤ 1
  h.observe(1.0);    // ≤ 1 (inclusive upper bound)
  h.observe(5.0);    // ≤ 10
  h.observe(1000.0); // overflow
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 0u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 1006.5);
  EXPECT_DOUBLE_EQ(snap.mean(), 1006.5 / 4.0);
}

TEST(Histogram, UnsortedBoundsAreSortedAndDeduped) {
  Histogram h({10.0, 1.0, 10.0});
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.bounds, (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(snap.counts.size(), 3u);
}

TEST(Histogram, AssignOverwritesWithASnapshot) {
  Histogram src({1.0, 10.0});
  src.observe(0.5);
  src.observe(20.0);
  Histogram dst({1.0, 10.0});
  dst.observe(5.0);
  dst.assign(src.snapshot());
  const auto got = dst.snapshot();
  EXPECT_EQ(got.counts, (std::vector<std::uint64_t>{1, 0, 1}));
  EXPECT_EQ(got.count, 2u);
  EXPECT_DOUBLE_EQ(got.sum, 20.5);
  dst.assign(src.snapshot());  // set semantics: assigning twice adds nothing
  EXPECT_EQ(dst.snapshot().count, 2u);
}

// The federation root and the benches republish a private registry under
// labeled names; histograms travel with the counters and gauges, with the
// same idempotent set semantics.
TEST(Registry, PublishLabeledCopiesEveryMetricKind) {
  Registry shard;
  shard.counter("planner.delta.replans").add(3);
  shard.gauge("planner.build_seconds").set(0.25);
  Histogram& replan =
      shard.histogram("planner.delta.replan_seconds", Histogram::time_bounds());
  replan.observe(2e-3);
  replan.observe(5e-2);

  Registry root;
  publish_labeled(shard.snapshot(), "n320", root);
  publish_labeled(shard.snapshot(), "n320", root);
  const RegistrySnapshot snap = root.snapshot();
  EXPECT_EQ(snap.counters.at("planner.n320.delta.replans"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("planner.n320.build_seconds"), 0.25);
  const auto& hist = snap.histograms.at("planner.n320.delta.replan_seconds");
  const auto want = replan.snapshot();
  EXPECT_EQ(hist.bounds, want.bounds);
  EXPECT_EQ(hist.counts, want.counts);
  EXPECT_EQ(hist.count, 2u);
  EXPECT_DOUBLE_EQ(hist.sum, want.sum);

  replan.observe(3.0);  // a later publish carries the new state, not a sum
  publish_labeled(shard.snapshot(), "n320", root);
  EXPECT_EQ(root.snapshot().histograms.at("planner.n320.delta.replan_seconds").count,
            3u);
}

TEST(Registry, RegistrationIsIdempotentWithStableAddresses) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = reg.histogram("h", {1.0});
  Histogram& h2 = reg.histogram("h", {99.0});  // bounds ignored on re-open
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.snapshot().bounds, (std::vector<double>{1.0}));
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, SnapshotIsNameSortedAndResetZeroes) {
  Registry reg;
  reg.counter("z.last").add(3);
  reg.counter("a.first").add(1);
  reg.gauge("mid").set(0.5);
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.begin()->first, "a.first");
  EXPECT_EQ(snap.counters.at("z.last"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("mid"), 0.5);

  reg.reset();
  EXPECT_EQ(reg.counter("z.last").value(), 0u);  // same object, zeroed
  EXPECT_FALSE(reg.snapshot().empty());          // registrations survive
}

TEST(Registry, InjectableOrGlobalConvention) {
  Registry mine;
  EXPECT_EQ(&registry_or_global(&mine), &mine);
  EXPECT_EQ(&registry_or_global(nullptr), &Registry::global());
}

TEST(EnabledSwitch, RuntimeToggleRoundTrips) {
  const bool before = enabled();
  set_enabled(false);
  EXPECT_FALSE(enabled());
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(before);
}

// The TSan-facing test (CI runs test_obs under -fsanitize=thread): many
// threads hammer the same counter, gauge, and histogram through the
// registry while a reader thread takes snapshots. Totals must be exact —
// counts are atomic, not sampled.
TEST(Registry, ConcurrentIncrementsAreExactAndRaceFree) {
  Registry reg;
  Counter& hits = reg.counter("hammer.hits");
  Gauge& seconds = reg.gauge("hammer.seconds");
  Histogram& sizes = reg.histogram("hammer.sizes", {8.0, 64.0, 512.0});

  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 1000;
  ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t task) {
    // Interleave registry lookups with handle reuse: both paths must be
    // safe concurrently.
    Counter& also_hits = reg.counter("hammer.hits");
    for (std::size_t i = 0; i < kPerTask; ++i) {
      (i % 2 == 0 ? hits : also_hits).add(1);
      seconds.add(0.001);
      sizes.observe(static_cast<double>((task * kPerTask + i) % 600));
      if (i % 257 == 0) (void)reg.snapshot();  // concurrent reader
    }
  });

  EXPECT_EQ(hits.value(), kTasks * kPerTask);
  const auto snap = sizes.snapshot();
  EXPECT_EQ(snap.count, kTasks * kPerTask);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_NEAR(seconds.value(), static_cast<double>(kTasks * kPerTask) * 0.001,
              1e-6);
}

}  // namespace
}  // namespace remo::obs
