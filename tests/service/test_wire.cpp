// Wire-format unit tests (DESIGN.md §14, `ctest -L service`): primitive
// round trips, the pinned little-endian byte layout, the sticky-failure
// reader model on truncated/corrupt input, record framing, the epoch-pairs
// record, and the resource_monitor-style text exporters.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "service/wire.h"

namespace remo::service::wire {
namespace {

TEST(Wire, PrimitiveRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-2.5);
  w.str("remo");
  const std::uint8_t raw[3] = {1, 2, 3};
  w.bytes(raw, sizeof raw);

  Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), -2.5);
  EXPECT_EQ(r.str(), "remo");
  std::uint8_t out[3] = {};
  r.bytes(out, sizeof out);
  EXPECT_EQ(out[2], 3);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Wire, LayoutIsLittleEndianByteByByte) {
  Writer w;
  w.u32(0x11223344u);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.buffer()[0], 0x44);
  EXPECT_EQ(w.buffer()[1], 0x33);
  EXPECT_EQ(w.buffer()[2], 0x22);
  EXPECT_EQ(w.buffer()[3], 0x11);

  // The magic spells "REMO" in stream order.
  Writer h;
  begin_stream(h);
  ASSERT_GE(h.size(), 4u);
  EXPECT_EQ(h.buffer()[0], 'R');
  EXPECT_EQ(h.buffer()[1], 'E');
  EXPECT_EQ(h.buffer()[2], 'M');
  EXPECT_EQ(h.buffer()[3], 'O');
}

TEST(Wire, TruncationFlipsTheStickyFailureFlag) {
  Writer w;
  w.u16(7);
  Reader r(w.buffer());
  EXPECT_EQ(r.u32(), 0u);  // needs 4 bytes, only 2 exist
  EXPECT_FALSE(r.ok());
  // Every later read stays zero — no need to guard each field.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.f64(), 0.0);
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.skip(1), nullptr);
}

TEST(Wire, StreamHeaderVerifiesMagicAndVersion) {
  Writer w;
  begin_stream(w);
  Reader ok(w.buffer());
  EXPECT_TRUE(read_stream_header(ok));
  EXPECT_TRUE(ok.ok());

  std::vector<std::uint8_t> corrupt = w.buffer();
  corrupt[0] = 'X';
  Reader bad(corrupt);
  EXPECT_FALSE(read_stream_header(bad));

  // A future version is rejected, not misparsed.
  Writer w2;
  w2.u32(kMagic);
  w2.u16(kVersion + 1);
  Reader future(w2.buffer());
  EXPECT_FALSE(read_stream_header(future));
}

TEST(Wire, RecordFramingIteratesAndStopsCleanly) {
  Writer w;
  begin_stream(w);
  append_record(w, RecordType::kEpochPairs, {1, 2, 3});
  append_record(w, RecordType::kStatus, {});

  Reader r(w.buffer());
  ASSERT_TRUE(read_stream_header(r));
  Record rec;
  ASSERT_TRUE(next_record(r, rec));
  EXPECT_EQ(rec.type, RecordType::kEpochPairs);
  ASSERT_EQ(rec.size, 3u);
  EXPECT_EQ(rec.payload[2], 3);
  ASSERT_TRUE(next_record(r, rec));
  EXPECT_EQ(rec.type, RecordType::kStatus);
  EXPECT_EQ(rec.size, 0u);
  // Clean end of stream: false with the reader still ok.
  EXPECT_FALSE(next_record(r, rec));
  EXPECT_TRUE(r.ok());

  // A frame whose declared length overruns the buffer is malformed:
  // false with the reader failed.
  Writer t;
  t.u8(static_cast<std::uint8_t>(RecordType::kEpochPairs));
  t.u32(100);
  Reader bad(t.buffer());
  EXPECT_FALSE(next_record(bad, rec));
  EXPECT_FALSE(bad.ok());
}

TEST(Wire, EpochPairsRecordRoundTrips) {
  EpochPairsRecord rec;
  rec.epoch = 42;
  rec.values_applied = 7;
  rec.pairs = {WirePair{1, 0, 3.5}, WirePair{2, 4, -1.0}};

  const std::vector<std::uint8_t> payload = encode_epoch_pairs(rec);
  EpochPairsRecord out;
  ASSERT_TRUE(decode_epoch_pairs(payload.data(), payload.size(), out));
  EXPECT_TRUE(out == rec);

  // Truncated and oversized payloads are both rejected.
  EXPECT_FALSE(decode_epoch_pairs(payload.data(), payload.size() - 1, out));
  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_FALSE(decode_epoch_pairs(padded.data(), padded.size(), out));
}

TEST(Wire, SeriesTextMatchesTheHeaderColumns) {
  const std::string header = series_header();
  EXPECT_EQ(header.front(), '#');
  EXPECT_EQ(header.back(), '\n');

  SeriesSample s;
  s.epoch = 3;
  s.values_applied = 10;
  s.pairs_collected = 8;
  s.coverage = 0.5;
  s.message_volume = 123.0;
  s.queue_depth = 2;
  s.values_shed = 1;
  const std::string line = series_line(s);
  EXPECT_EQ(line.back(), '\n');

  // Column count in the header matches the sample line.
  const auto columns = [](const std::string& text) {
    std::size_t n = 0;
    bool in_word = false;
    for (char c : text) {
      const bool space = c == ' ' || c == '\t' || c == '\n';
      if (!space && !in_word) ++n;
      in_word = !space;
    }
    return n;
  };
  EXPECT_EQ(columns(header.substr(1)), columns(line));
  EXPECT_NE(line.find("3 "), std::string::npos);
}

TEST(Wire, JsonEscapeHandlesQuotesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("a\rb"), "a\\rb");
  EXPECT_EQ(json_escape("a\bb"), "a\\bb");
  EXPECT_EQ(json_escape("a\x01" "b"), "a\\u0001b");
  EXPECT_EQ(json_escape("a\x1f" "b"), "a\\u001fb");
}

}  // namespace
}  // namespace remo::service::wire
