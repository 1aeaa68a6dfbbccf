// JSON string escaping, header-only so that every target can use it: the
// figure benches (bench/bench_support.h) link no service library.
#pragma once

#include <string>
#include <string_view>

namespace remo {

/// The body of a JSON string literal for `s` (without the quotes): `"` and
/// `\` escaped, `\b \f \n \r \t` as short escapes, and every other byte
/// below 0x20 as `\u00XX`. Other bytes, UTF-8 included, pass through.
inline std::string json_escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte >= 0x20) {
          out += c;
          break;
        }
        out += "\\u00";
        out += kHex[byte >> 4];
        out += kHex[byte & 0xf];
      }
    }
  }
  return out;
}

}  // namespace remo
