#include "obs/export.h"

#include <cstdio>

#include "common/json.h"

namespace remo::obs {

namespace {

/// Shortest form that round-trips our values: %.10g trims trailing zeros
/// ("0.1", "5.05", "1e-05") and is stable across platforms for the
/// magnitudes we emit.
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string pad(int indent) { return std::string(static_cast<std::size_t>(indent), ' '); }

void append_histogram_json(std::string& out, const Histogram::Snapshot& h,
                           const std::string& p) {
  out += "{\n";
  out += p + "  \"count\": " + std::to_string(h.count) + ",\n";
  out += p + "  \"sum\": " + fmt(h.sum) + ",\n";
  out += p + "  \"buckets\": [\n";
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const std::string le =
        i < h.bounds.size() ? fmt(h.bounds[i]) : std::string("\"inf\"");
    out += p + "    {\"le\": " + le +
           ", \"count\": " + std::to_string(h.counts[i]) + "}";
    out += i + 1 < h.counts.size() ? ",\n" : "\n";
  }
  out += p + "  ]\n";
  out += p + "}";
}

}  // namespace

std::string to_json(const RegistrySnapshot& snapshot, int indent) {
  const std::string p = pad(indent);
  std::string out;
  out += p + "{\n";

  out += p + "  \"counters\": {";
  std::size_t i = 0;
  for (const auto& [name, value] : snapshot.counters) {
    out += i++ == 0 ? "\n" : ",\n";
    out += p + "    \"" + json_escape(name) + "\": " + std::to_string(value);
  }
  out += snapshot.counters.empty() ? "},\n" : "\n" + p + "  },\n";

  out += p + "  \"gauges\": {";
  i = 0;
  for (const auto& [name, value] : snapshot.gauges) {
    out += i++ == 0 ? "\n" : ",\n";
    out += p + "    \"" + json_escape(name) + "\": " + fmt(value);
  }
  out += snapshot.gauges.empty() ? "},\n" : "\n" + p + "  },\n";

  out += p + "  \"histograms\": {";
  i = 0;
  for (const auto& [name, h] : snapshot.histograms) {
    out += i++ == 0 ? "\n" : ",\n";
    out += p + "    \"" + json_escape(name) + "\": ";
    append_histogram_json(out, h, p + "    ");
  }
  out += snapshot.histograms.empty() ? "}\n" : "\n" + p + "  }\n";

  out += p + "}";
  return out;
}

std::string to_csv(const RegistrySnapshot& snapshot) {
  std::string out = "kind,name,field,value\n";
  for (const auto& [name, value] : snapshot.counters)
    out += "counter," + name + ",value," + std::to_string(value) + "\n";
  for (const auto& [name, value] : snapshot.gauges)
    out += "gauge," + name + ",value," + fmt(value) + "\n";
  for (const auto& [name, h] : snapshot.histograms) {
    out += "histogram," + name + ",count," + std::to_string(h.count) + "\n";
    out += "histogram," + name + ",sum," + fmt(h.sum) + "\n";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      const std::string le = i < h.bounds.size() ? fmt(h.bounds[i]) : "inf";
      out += "histogram," + name + ",le_" + le + "," +
             std::to_string(h.counts[i]) + "\n";
    }
  }
  return out;
}

Table to_table(const RegistrySnapshot& snapshot) {
  Table t({"metric", "kind", "value"});
  for (const auto& [name, value] : snapshot.counters)
    t.row().add(name).add("counter").add(static_cast<long long>(value));
  for (const auto& [name, value] : snapshot.gauges)
    t.row().add(name).add("gauge").add(value, 6);
  for (const auto& [name, h] : snapshot.histograms)
    t.row().add(name).add("histogram").add(
        "count=" + std::to_string(h.count) + " sum=" + fmt(h.sum) +
        " mean=" + fmt(h.mean()));
  return t;
}

std::string to_json(const std::vector<SpanRecord>& spans, int indent) {
  const std::string p = pad(indent);
  if (spans.empty()) return p + "[]";
  std::string out = p + "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out += p + "  {\"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) + ", \"name\": \"" +
           json_escape(s.name) + "\", \"start_s\": " + fmt(s.start_s) +
           ", \"duration_s\": " + fmt(s.duration_s) + "}";
    out += i + 1 < spans.size() ? ",\n" : "\n";
  }
  out += p + "]";
  return out;
}

}  // namespace remo::obs
