// JSON string escaping shared by every JSON writer: metrics snapshots,
// Chrome traces, DSE reports, analyzer reports and mte_lint's multi-file
// wrapper. It lives in obs/, the layer everything else already builds on.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace mte::obs {

/// Appends `s` as the body of a JSON string: the short escapes
/// \" \\ \n \r \t, and \u00XX for every other control byte.
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// `s` escaped as the body of a JSON string.
[[nodiscard]] inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

}  // namespace mte::obs
