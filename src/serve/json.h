// Minimal JSON for the serving protocol (serve/protocol.h).
//
// The wire format is line-delimited JSON: one object per line, request in
// and response out. The repo deliberately carries no external JSON
// dependency, so this header provides the little that the protocol
// needs — a recursive-descent parser into a plain value tree, plus the
// repo's one escaping writer (support/json.h) — with Status-carrying
// errors instead of exceptions (a malformed client line must never take
// the daemon down).
//
// Scope: UTF-8 pass-through (no codepoint validation), numbers parsed as
// double (the protocol's integers are all well within 2^53), \uXXXX
// escapes decoded for the BMP only. Nesting depth is capped so a
// adversarial "[[[[..." line cannot overflow the stack.
#ifndef CWM_SERVE_JSON_H_
#define CWM_SERVE_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/json.h"
#include "support/status.h"

namespace cwm {

/// One parsed JSON value. A plain tagged tree: cheap to traverse, no
/// lifetime ties to the input text.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered members (duplicate keys keep the last).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool IsNull() const { return kind == Kind::kNull; }
  bool IsBool() const { return kind == Kind::kBool; }
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsObject() const { return kind == Kind::kObject; }

  /// Member lookup (objects only); nullptr when absent.
  const JsonValue* Find(std::string_view key) const;
};

/// Parses one complete JSON document; trailing non-whitespace is an
/// error (a line must be exactly one object).
StatusOr<JsonValue> ParseJson(std::string_view text);

}  // namespace cwm

#endif  // CWM_SERVE_JSON_H_
