#ifndef PROGRES_COMMON_STRING_UTIL_H_
#define PROGRES_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace progres {

// Returns the first `n` characters of `s` (or all of `s` if shorter). This is
// the substring operation used by the paper's prefix blocking keys
// (Table II: e.g. title.sub(0, 3)).
std::string_view Prefix(std::string_view s, size_t n);

// Appends `s` to `*out` with ASCII letters lower-cased; other bytes are
// copied unchanged.
void AppendLowerAscii(std::string_view s, std::string* out);

// Splits `s` on `delim` without trimming; empty fields are preserved.
std::vector<std::string_view> Split(std::string_view s, char delim);

// Joins `parts` with `delim` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, char delim);

// Returns true if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

// Parses all of `s` as a decimal int32 with an optional leading '-'.
// Returns false, leaving `*out` unspecified, when `s` is empty, holds any
// other byte or does not fit.
bool ParseInt32(std::string_view s, int32_t* out);

}  // namespace progres

#endif  // PROGRES_COMMON_STRING_UTIL_H_
