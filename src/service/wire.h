// Versioned wire format for the monitoring daemon (DESIGN.md §14):
//   - a length-prefixed little-endian binary record stream ("REMO" magic,
//     u16 version, then [u8 type][u32 length][payload] records) carrying
//     the per-epoch collected-pair batches and snapshots — the daemon's
//     machine-readable output and restart image;
//   - plain-text exporters in the style of cctools' resource_monitor: a
//     one-object JSON summary and a whitespace-separated time series with
//     a `#`-prefixed header line, one sample per epoch.
//
// Reader failure model: a truncated or corrupt stream flips the reader
// into a sticky failed state (ok() == false) and further reads return
// zeros — callers check ok() once at the end instead of guarding every
// field, and a malformed input never aborts the process from inside the
// decoder (the *callers* decide whether that is a contract violation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/types.h"

namespace remo::service::wire {

/// "REMO" in little-endian byte order.
inline constexpr std::uint32_t kMagic = 0x4F4D4552u;
inline constexpr std::uint16_t kVersion = 2;

enum class RecordType : std::uint8_t {
  kStreamHeader = 1,  ///< reserved (the header is written raw, not framed)
  kEpochPairs = 2,    ///< one epoch's collected (node, attr, value) batch
  kStatus = 3,        ///< merged Status roll-up for one epoch
  kSnapshot = 4,      ///< full daemon image (service/snapshot.h payload)
};

/// Append-only little-endian encoder. Multi-byte integers are emitted
/// byte-by-byte (no reinterpret_cast), so the encoding is identical on
/// any host; doubles travel as their IEEE-754 bit pattern.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void bytes(const void* data, std::size_t size);
  /// u32 length + raw bytes.
  void str(const std::string& s);

  const std::vector<std::uint8_t>& buffer() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  void bytes(void* out, std::size_t size);
  std::string str();
  /// Advances without copying; returns the payload start (null on failure).
  const std::uint8_t* skip(std::size_t size);

  bool ok() const noexcept { return ok_; }
  std::size_t remaining() const noexcept { return size_ - pos_; }
  bool at_end() const noexcept { return pos_ == size_; }

 private:
  bool take(std::size_t n);

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- record framing --------------------------------------------------------

/// Writes the stream header (magic + version). Every daemon output stream
/// and snapshot image starts with one.
void begin_stream(Writer& w);
/// Consumes and verifies the stream header; false on a truncated header
/// (reader failed), a wrong magic, or an unsupported version (the reader
/// stays ok — the bytes parsed, they just weren't ours).
bool read_stream_header(Reader& r);

/// Appends one framed record: [u8 type][u32 payload length][payload].
void append_record(Writer& w, RecordType type,
                   const std::vector<std::uint8_t>& payload);

struct Record {
  RecordType type = RecordType::kStreamHeader;
  const std::uint8_t* payload = nullptr;  ///< borrowed from the reader's buffer
  std::size_t size = 0;
};

/// Reads the next framed record (borrowing its payload). False at a clean
/// end of stream or on a malformed frame — distinguish via r.ok().
bool next_record(Reader& r, Record& out);

// ---- epoch records ---------------------------------------------------------

/// One collected pair with the freshest value the daemon has seen for it.
struct WirePair {
  NodeId node = kNoNode;
  AttrId attr = 0;
  double value = 0.0;

  bool operator==(const WirePair&) const = default;
};

struct EpochPairsRecord {
  std::uint64_t epoch = 0;
  std::uint64_t values_applied = 0;  ///< values ingested during this epoch
  std::vector<WirePair> pairs;       ///< sorted by (node, attr)

  bool operator==(const EpochPairsRecord&) const = default;
};

std::vector<std::uint8_t> encode_epoch_pairs(const EpochPairsRecord& rec);
/// Decodes a kEpochPairs payload; false on malformed input.
bool decode_epoch_pairs(const std::uint8_t* payload, std::size_t size,
                        EpochPairsRecord& out);

// ---- resource_monitor-style text exporters ---------------------------------

/// One sample of the daemon's retained time series.
struct SeriesSample {
  std::uint64_t epoch = 0;
  std::uint64_t values_applied = 0;
  std::uint64_t pairs_collected = 0;
  double coverage = 0.0;
  double message_volume = 0.0;
  std::uint64_t queue_depth = 0;
  std::uint64_t values_shed = 0;
};

/// `#`-prefixed column header, newline-terminated.
std::string series_header();
/// One whitespace-separated sample line, newline-terminated.
std::string series_line(const SeriesSample& s);

/// JSON string escaping (common/json.h), kept callable under this name.
using remo::json_escape;

}  // namespace remo::service::wire
