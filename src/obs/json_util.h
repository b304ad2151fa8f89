// Minimal JSON string escaping shared by the trace and metrics exporters.
#ifndef EVENTHIT_OBS_JSON_UTIL_H_
#define EVENTHIT_OBS_JSON_UTIL_H_

#include <string>

namespace eventhit::obs {

/// Escapes `value` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string JsonEscape(const std::string& value);

/// Appends `"<escaped key>":` to `out`.
void AppendJsonKey(const std::string& key, std::string* out);

/// Formats a double as a JSON number. JSON has no Infinity/NaN literals,
/// so non-finite values render as `null` — a broken gauge must not parse
/// back as a legitimate zero.
std::string JsonNumber(double value);

}  // namespace eventhit::obs

#endif  // EVENTHIT_OBS_JSON_UTIL_H_
