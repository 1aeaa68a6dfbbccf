#include "obs/export.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace remo::obs {
namespace {

Registry& sample_registry(Registry& reg) {
  reg.counter("planner.candidates_evaluated").add(120);
  reg.counter("planner.cache_hits").add(45);
  reg.gauge("planner.build_seconds").add(0.25);
  Histogram& h = reg.histogram("sim.deliveries_per_epoch", {1.0, 10.0});
  h.observe(0.0);
  h.observe(4.0);
  h.observe(4.0);
  h.observe(250.0);
  return reg;
}

// The exporter contract is byte-exact determinism (name-sorted maps,
// %.10g numbers): these golden strings are what BENCH_*.json embeds.
TEST(ExportJson, GoldenRegistrySnapshot) {
  Registry reg;
  const std::string json = to_json(sample_registry(reg).snapshot());
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"planner.cache_hits\": 45,\n"
      "    \"planner.candidates_evaluated\": 120\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"planner.build_seconds\": 0.25\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"sim.deliveries_per_epoch\": {\n"
      "      \"count\": 4,\n"
      "      \"sum\": 258,\n"
      "      \"buckets\": [\n"
      "        {\"le\": 1, \"count\": 1},\n"
      "        {\"le\": 10, \"count\": 2},\n"
      "        {\"le\": \"inf\", \"count\": 1}\n"
      "      ]\n"
      "    }\n"
      "  }\n"
      "}";
  EXPECT_EQ(json, expected);
}

TEST(ExportJson, EmptySnapshotAndIndent) {
  const std::string json = to_json(RegistrySnapshot{}, 2);
  const std::string expected =
      "  {\n"
      "    \"counters\": {},\n"
      "    \"gauges\": {},\n"
      "    \"histograms\": {}\n"
      "  }";
  EXPECT_EQ(json, expected);
}

TEST(ExportCsv, GoldenRegistrySnapshot) {
  Registry reg;
  const std::string csv = to_csv(sample_registry(reg).snapshot());
  const std::string expected =
      "kind,name,field,value\n"
      "counter,planner.cache_hits,value,45\n"
      "counter,planner.candidates_evaluated,value,120\n"
      "gauge,planner.build_seconds,value,0.25\n"
      "histogram,sim.deliveries_per_epoch,count,4\n"
      "histogram,sim.deliveries_per_epoch,sum,258\n"
      "histogram,sim.deliveries_per_epoch,le_1,1\n"
      "histogram,sim.deliveries_per_epoch,le_10,2\n"
      "histogram,sim.deliveries_per_epoch,le_inf,1\n";
  EXPECT_EQ(csv, expected);
}

TEST(ExportTable, RendersOneRowPerMetric) {
  Registry reg;
  const Table t = to_table(sample_registry(reg).snapshot());
  ASSERT_EQ(t.headers(), (std::vector<std::string>{"metric", "kind", "value"}));
  ASSERT_EQ(t.rows().size(), 4u);
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("planner.cache_hits"), std::string::npos);
  EXPECT_NE(text.find("count=4 sum=258 mean=64.5"), std::string::npos);
}

TEST(ExportJson, SpanListGolden) {
  std::vector<SpanRecord> spans;
  spans.push_back({2, 1, "planner.build_full", 0.001, 0.5});
  spans.push_back({1, 0, "planner.plan", 0.0, 1.25});
  const std::string json = to_json(spans);
  const std::string expected =
      "[\n"
      "  {\"id\": 2, \"parent\": 1, \"name\": \"planner.build_full\", "
      "\"start_s\": 0.001, \"duration_s\": 0.5},\n"
      "  {\"id\": 1, \"parent\": 0, \"name\": \"planner.plan\", "
      "\"start_s\": 0, \"duration_s\": 1.25}\n"
      "]";
  EXPECT_EQ(json, expected);
  EXPECT_EQ(to_json(std::vector<SpanRecord>{}, 4), "    []");
}

TEST(ExportJson, EscapesMetricAndSpanNames) {
  // A name holding a quote, a backslash or a newline must not end the JSON
  // string early: each kind of name is written as an escaped literal.
  const std::string name = "odd\"name\\with\nbreak";
  const std::string escaped = "odd\\\"name\\\\with\\nbreak";
  Registry reg;
  reg.counter(name).add(1);
  reg.gauge(name).add(0.5);
  reg.histogram(name, {1.0}).observe(2.0);
  const std::string json = to_json(reg.snapshot());
  EXPECT_NE(json.find("\"counters\": {\n    \"" + escaped + "\": 1\n"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gauges\": {\n    \"" + escaped + "\": 0.5\n"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"histograms\": {\n    \"" + escaped + "\": {"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find(name), std::string::npos);

  const std::vector<SpanRecord> spans{{1, 0, name, 0.0, 1.0}};
  EXPECT_EQ(to_json(spans),
            "[\n  {\"id\": 1, \"parent\": 0, \"name\": \"" + escaped +
                "\", \"start_s\": 0, \"duration_s\": 1}\n]");
}

}  // namespace
}  // namespace remo::obs
