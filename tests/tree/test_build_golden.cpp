// Golden build digests: build_tree outputs of seeded inputs, pinned to
// digests recorded from an earlier build. PlanGolden pins whole plans; this
// suite pins the builder alone, including the diagnostics a plan digest
// cannot see (how often the adjusting procedure ran and how many reattach
// targets it tested), so a builder speed-up that changes a parent choice,
// a child order, a rejection or the adjust trajectory fails here.
//
// Inputs: 20 seeds × three capacity regimes × two attribute-spec shapes ×
// {ADAPTIVE, STAR}:
//   - rich:           every budget ample — each item hangs under the
//                     collector in the first construction pass;
//   - collector_fills: the collector saturates mid-pass, later items go
//                     under members and some fail, so the adjusting
//                     procedure runs on the congested nodes the first pass
//                     recorded;
//   - members_tight:  small member budgets, some below an item's own
//                     message cost.
// Spec shapes: uniform-identity (holistic attributes, unit weights) and
// non-identity (a SUM funnel and a half-frequency weight). A handcrafted
// case adds builds whose adjusting procedure tries a congested node that
// only the scans of items placed under the collector reported.
//
// The digest covers, per seed: the members in insertion order with their
// parents, every vertex's child list in order (collector first), the
// rejected ids in order, adjust_invocations and reattach_tests. On a
// mismatch the test prints the new digest; re-record only for an intended
// change of the builder's output.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "common/rng.h"
#include "tree/builder.h"

namespace remo {
namespace {

constexpr CostModel kCost{10.0, 1.0};
constexpr std::size_t kItems = 48;
constexpr std::size_t kAttrs = 3;
constexpr std::uint64_t kSeeds = 20;

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
};

std::vector<TreeAttrSpec> specs_for(std::string_view shape) {
  std::vector<TreeAttrSpec> specs;
  for (AttrId a = 0; a < kAttrs; ++a) specs.push_back(TreeAttrSpec{a, FunnelSpec{}, 1.0});
  if (shape == "non_identity") {
    specs[1].funnel = FunnelSpec{AggType::kSum};
    specs[2].weight = 0.5;
  }
  return specs;
}

/// Seeded items and a budget drawn from the regime's range; returns the
/// collector budget. Values per attribute are 0–3 (an all-zero row is
/// rejected outright), except under collector_fills: there the items with
/// the upper half of the budgets carry 1–3 values per attribute and the
/// rest 0–1. The builder takes items in decreasing-budget order, so the
/// large items reach the still-open collector first, and their scans see
/// congested members that the small items after them do not.
Capacity make_items(std::string_view regime, std::uint64_t seed,
                    std::vector<BuildItem>& items) {
  Rng rng{seed};
  double lo = 1e6, hi = 1e6;
  if (regime == "collector_fills") {
    lo = 30.0;
    hi = 45.0;
  } else if (regime == "members_tight") {
    lo = 8.0;
    hi = 30.0;
  }
  items.clear();
  for (NodeId id = 1; id <= kItems; ++id) {
    BuildItem item{id, std::vector<std::uint32_t>(kAttrs), rng.uniform(lo, hi)};
    const bool large = item.avail >= (lo + hi) / 2;
    for (auto& v : item.local) {
      if (regime != "collector_fills")
        v = static_cast<std::uint32_t>(rng.below(4));
      else
        v = static_cast<std::uint32_t>(large ? 1 + rng.below(3) : rng.below(2));
    }
    items.push_back(std::move(item));
  }
  if (regime == "rich") return 1e6;
  // Room for about a third (collector_fills) or a quarter of the items'
  // messages directly under the collector.
  const double share = regime == "collector_fills" ? 1.0 / 3.0 : 1.0 / 4.0;
  return share * static_cast<double>(kItems) * (kCost.per_message + 4.0 * kCost.per_value);
}

/// Digest of one build's output (see the file comment).
void add_build(Digest& d, const TreeBuildResult& r) {
  d.add(r.tree.size());
  for (NodeId n : r.tree.members()) {
    d.add(n);
    d.add(r.tree.parent(n));
  }
  d.add(r.tree.children(kCollectorId).size());
  for (NodeId c : r.tree.children(kCollectorId)) d.add(c);
  for (NodeId n : r.tree.members()) {
    d.add(r.tree.children(n).size());
    for (NodeId c : r.tree.children(n)) d.add(c);
  }
  d.add(r.rejected.size());
  for (const auto& item : r.rejected) d.add(item.id);
  d.add(r.adjust_invocations);
  d.add(r.reattach_tests);
}

std::uint64_t build_digest(std::string_view regime, std::string_view shape,
                           TreeScheme scheme) {
  Digest d;
  std::vector<BuildItem> items;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Capacity collector = make_items(regime, seed, items);
    TreeBuildOptions opts;
    opts.scheme = scheme;
    const auto r = build_tree(specs_for(shape), items, collector, kCost, opts);
    EXPECT_TRUE(r.tree.validate()) << regime << " " << shape << " seed " << seed;
    add_build(d, r);
  }
  return d.h;
}

struct Golden {
  std::string_view regime;
  std::string_view shape;
  TreeScheme scheme;
  std::uint64_t digest;
};

// Recorded from the builder before collector-first construction; every
// later build must reproduce them.
constexpr Golden kGolden[] = {
    {"rich", "identity", TreeScheme::kAdaptive, 0x676e85ca39830c65ULL},
    {"rich", "identity", TreeScheme::kStar, 0x676e85ca39830c65ULL},
    {"rich", "non_identity", TreeScheme::kAdaptive, 0x676e85ca39830c65ULL},
    {"rich", "non_identity", TreeScheme::kStar, 0x676e85ca39830c65ULL},
    {"collector_fills", "identity", TreeScheme::kAdaptive, 0xca06623d99592b9fULL},
    {"collector_fills", "identity", TreeScheme::kStar, 0xfcc62dc2021657fcULL},
    {"collector_fills", "non_identity", TreeScheme::kAdaptive, 0x21fe151429790a3aULL},
    {"collector_fills", "non_identity", TreeScheme::kStar, 0x21d34a4420c376b2ULL},
    {"members_tight", "identity", TreeScheme::kAdaptive, 0x7dd4e40bb9c220ceULL},
    {"members_tight", "identity", TreeScheme::kStar, 0xed447bb68102eb70ULL},
    {"members_tight", "non_identity", TreeScheme::kAdaptive, 0x4d67152b1b8d2290ULL},
    {"members_tight", "non_identity", TreeScheme::kStar, 0x8e5ff96cf49e1fc9ULL},
};

TEST(BuildGolden, DigestsMatchRecordedBuilds) {
  for (const Golden& g : kGolden) {
    const std::uint64_t got = build_digest(g.regime, g.shape, g.scheme);
    EXPECT_EQ(got, g.digest) << "{\"" << g.regime << "\", \"" << g.shape
                             << "\", TreeScheme::k"
                             << (g.scheme == TreeScheme::kStar ? "Star" : "Adaptive")
                             << ", 0x" << std::hex << got << "ULL},";
  }
}

// A congested node that only the scans of items the collector took can
// see. One attribute, C = 10, a = 1. `big` items of 9 values (send cost
// 19) fill the collector up to `room` < 11 spare units: first `dc`, with
// budget 44, then the others with budget 27. While the collector is open,
// each later big item's scan finds dc overloaded ((19 + 19) + 9 > 44).
// Then two items of 1 value (cost 11, budget 20) no longer fit under the
// collector and both go under dc, the only member with room; their scans
// see dc feasible. Two items that cannot afford their own message stay
// pending, so the adjusting procedure runs: the collector's branches fit
// nowhere, and dc — whose two branches it then tries — is in the
// congested list only because of the collector-choosing scans.
TEST(BuildGolden, AdjustReadsBlockersOnlyCollectorChoosingScansRecorded) {
  Digest d;
  const std::vector<TreeAttrSpec> spec{{0, FunnelSpec{}, 1.0}};
  for (NodeId big = 3; big <= 7; ++big) {
    for (const Capacity room : {2.0, 5.0, 10.0}) {
      std::vector<BuildItem> items;
      items.push_back(BuildItem{1, {9}, 44.0});
      for (NodeId id = 2; id <= big; ++id) items.push_back(BuildItem{id, {9}, 27.0});
      for (NodeId id = big + 1; id <= big + 2; ++id)
        items.push_back(BuildItem{id, {1}, 20.0});
      for (NodeId id = big + 3; id <= big + 4; ++id)
        items.push_back(BuildItem{id, {1}, 5.0});
      TreeBuildOptions opts;
      opts.scheme = TreeScheme::kAdaptive;
      const auto r = build_tree(spec, items, 19.0 * big + room, kCost, opts);
      EXPECT_TRUE(r.tree.validate()) << big << " " << room;
      EXPECT_EQ(r.tree.children(1).size(), 2u) << big << " " << room;
      EXPECT_EQ(r.rejected.size(), 2u) << big << " " << room;
      add_build(d, r);
    }
  }
  EXPECT_EQ(d.h, 0x158b32a71c9a357bULL) << "0x" << std::hex << d.h << "ULL";
}

}  // namespace
}  // namespace remo
