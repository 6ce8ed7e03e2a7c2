#include "common/string_util.h"

#include <charconv>

namespace progres {

std::string_view Prefix(std::string_view s, size_t n) {
  return s.substr(0, std::min(n, s.size()));
}

void AppendLowerAscii(std::string_view s, std::string* out) {
  const size_t start = out->size();
  out->append(s);
  for (size_t i = start; i < out->size(); ++i) {
    char& c = (*out)[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
}

std::vector<std::string_view> Split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& parts, char delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.push_back(delim);
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ParseInt32(std::string_view s, int32_t* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace progres
