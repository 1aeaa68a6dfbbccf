#include "service/wire.h"

#include <bit>
#include <cstring>
#include <sstream>

namespace remo::service::wire {

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + size);
}

void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(s.data(), s.size());
}

bool Reader::take(std::size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t Reader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  if (!take(2)) return 0;
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i)
    v = static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(data_[pos_++]) << (8 * i)));
  return v;
}

std::uint32_t Reader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t Reader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

void Reader::bytes(void* out, std::size_t size) {
  if (!take(size)) {
    std::memset(out, 0, size);
    return;
  }
  std::memcpy(out, data_ + pos_, size);
  pos_ += size;
}

std::string Reader::str() {
  const std::uint32_t len = u32();
  if (!take(len)) return {};
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

const std::uint8_t* Reader::skip(std::size_t size) {
  if (!take(size)) return nullptr;
  const std::uint8_t* p = data_ + pos_;
  pos_ += size;
  return p;
}

void begin_stream(Writer& w) {
  w.u32(kMagic);
  w.u16(kVersion);
}

bool read_stream_header(Reader& r) {
  const std::uint32_t magic = r.u32();
  const std::uint16_t version = r.u16();
  if (!r.ok() || magic != kMagic || version != kVersion) return false;
  return true;
}

void append_record(Writer& w, RecordType type,
                   const std::vector<std::uint8_t>& payload) {
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload.data(), payload.size());
}

bool next_record(Reader& r, Record& out) {
  if (r.at_end() || !r.ok()) return false;
  const std::uint8_t type = r.u8();
  const std::uint32_t size = r.u32();
  const std::uint8_t* payload = r.skip(size);
  if (payload == nullptr) return false;
  out.type = static_cast<RecordType>(type);
  out.payload = payload;
  out.size = size;
  return true;
}

std::vector<std::uint8_t> encode_epoch_pairs(const EpochPairsRecord& rec) {
  Writer w;
  w.u64(rec.epoch);
  w.u64(rec.values_applied);
  w.u32(static_cast<std::uint32_t>(rec.pairs.size()));
  for (const WirePair& p : rec.pairs) {
    w.u32(p.node);
    w.u32(p.attr);
    w.f64(p.value);
  }
  return w.take();
}

bool decode_epoch_pairs(const std::uint8_t* payload, std::size_t size,
                        EpochPairsRecord& out) {
  Reader r(payload, size);
  out.epoch = r.u64();
  out.values_applied = r.u64();
  const std::uint32_t n = r.u32();
  out.pairs.clear();
  out.pairs.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    WirePair p;
    p.node = r.u32();
    p.attr = r.u32();
    p.value = r.f64();
    out.pairs.push_back(p);
  }
  return r.ok() && r.at_end();
}

std::string series_header() {
  return "#epoch values_applied pairs_collected coverage message_volume "
         "queue_depth values_shed\n";
}

std::string series_line(const SeriesSample& s) {
  std::ostringstream os;
  os << s.epoch << ' ' << s.values_applied << ' ' << s.pairs_collected << ' '
     << s.coverage << ' ' << s.message_volume << ' ' << s.queue_depth << ' '
     << s.values_shed << '\n';
  return os.str();
}

}  // namespace remo::service::wire
