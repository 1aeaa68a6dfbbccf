#include "planner/export.h"

#include <gtest/gtest.h>

#include "planner/planner.h"

namespace remo {
namespace {

const CostModel kCost{10.0, 1.0};

Topology small_topology() {
  SystemModel system(4, 1e6, kCost);
  system.set_collector_capacity(1e9);
  PairSet pairs(5);
  for (NodeId n = 1; n <= 4; ++n) {
    system.set_observable(n, {0, 1});
    pairs.add(n, 0);
    pairs.add(n, 1);
  }
  PlannerOptions o;
  o.partition_scheme = PartitionScheme::kSingletonSet;
  return Planner(system, o).plan(pairs);
}

TEST(Export, DotContainsEveryMemberAndTheCollector) {
  const auto topo = small_topology();
  const std::string dot = to_dot(topo);
  EXPECT_NE(dot.find("digraph remo_topology"), std::string::npos);
  EXPECT_NE(dot.find("collector"), std::string::npos);
  // Names are built by appending: GCC 12 raises a false -Wrestrict on
  // "literal" + std::to_string(...) at -O3.
  for (std::size_t k = 0; k < topo.num_trees(); ++k) {
    std::string cluster = "cluster_";
    cluster += std::to_string(k);
    EXPECT_NE(dot.find(cluster), std::string::npos);
    for (NodeId n : topo.entries()[k].tree.members()) {
      std::string id = "t";
      id += std::to_string(k);
      id += "_n";
      id += std::to_string(n);
      EXPECT_NE(dot.find(id), std::string::npos) << id;
    }
  }
  // Balanced braces (cheap well-formedness check).
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(Export, DotEdgesPointToParents) {
  const auto topo = small_topology();
  const std::string dot = to_dot(topo);
  // Every member of every tree produces exactly one edge line ("->").
  std::size_t edges = 0;
  for (std::size_t pos = dot.find("->"); pos != std::string::npos;
       pos = dot.find("->", pos + 2))
    ++edges;
  std::size_t members = 0;
  for (const auto& e : topo.entries()) members += e.tree.size();
  EXPECT_EQ(edges, members);
}

TEST(Export, JsonContainsSummaryFields) {
  const auto topo = small_topology();
  const std::string json = to_json(topo);
  EXPECT_NE(json.find("\"trees\": " + std::to_string(topo.num_trees())),
            std::string::npos);
  EXPECT_NE(json.find("\"total_pairs\": " + std::to_string(topo.total_pairs())),
            std::string::npos);
  EXPECT_NE(json.find("\"collected_pairs\": " +
                      std::to_string(topo.collected_pairs())),
            std::string::npos);
  EXPECT_NE(json.find("\"forest\""), std::string::npos);
  // Balanced brackets and braces.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Export, EmptyTopology) {
  Topology empty;
  EXPECT_NE(to_dot(empty).find("digraph"), std::string::npos);
  EXPECT_NE(to_json(empty).find("\"trees\": 0"), std::string::npos);
}

}  // namespace
}  // namespace remo
