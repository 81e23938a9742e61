// The JSON writer: every emitter in the repo (scenario sinks, the trace
// and metrics dumps, serve responses) renders strings and numbers through
// these two functions, so escaping and number formatting have one
// definition.
#ifndef CWM_SUPPORT_JSON_H_
#define CWM_SUPPORT_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace cwm {

/// Appends `text` to `out` as a quoted JSON string with full escaping
/// (quote, backslash, \b \f \n \r \t, \u00XX for other control bytes).
void AppendJsonString(std::string* out, std::string_view text);

/// Appends a double in round-trip form: "%.17g", with integral values
/// below 1e15 printed as integers (so -0 prints as 0) and non-finite
/// values, which JSON cannot represent, as null.
void AppendJsonNumber(std::string* out, double value);

/// Appends an integer (exact, no exponent form).
void AppendJsonNumber(std::string* out, int64_t value);
void AppendJsonNumber(std::string* out, uint64_t value);

}  // namespace cwm

#endif  // CWM_SUPPORT_JSON_H_
