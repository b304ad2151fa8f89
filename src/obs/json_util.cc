#include "obs/json_util.h"

#include <cmath>
#include <cstdio>

namespace eventhit::obs {

std::string JsonEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendJsonKey(const std::string& key, std::string* out) {
  *out += '"';
  *out += JsonEscape(key);
  *out += "\":";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  // %.17g round-trips doubles; trim to a compact form for integers.
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      std::fabs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  return buffer;
}

}  // namespace eventhit::obs
