#include "support/json.h"

#include <cmath>
#include <cstdio>

namespace cwm {

void AppendJsonString(std::string* out, std::string_view text) {
  out->push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(std::string* out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Inf/NaN; null is the least-wrong representation.
    out->append("null");
    return;
  }
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    AppendJsonNumber(out, static_cast<int64_t>(value));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out->append(buf);
}

void AppendJsonNumber(std::string* out, int64_t value) {
  out->append(std::to_string(value));
}

void AppendJsonNumber(std::string* out, uint64_t value) {
  out->append(std::to_string(value));
}

}  // namespace cwm
