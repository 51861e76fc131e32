// Minimal JSON encoding for the benchmark's result line and report files.
#pragma once

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

namespace perfbench {

[[nodiscard]] inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// All significant digits; non-finite values (never valid JSON) as null.
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// {"k": v, ...} from already-encoded values, in key order.
[[nodiscard]] inline std::string json_object(const std::map<std::string, std::string>& kv) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : kv) {
    if (!first) out += ", ";
    first = false;
    out += json_string(k) + ": " + v;
  }
  return out + "}";
}

}  // namespace perfbench
