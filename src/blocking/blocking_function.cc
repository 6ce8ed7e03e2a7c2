#include "blocking/blocking_function.h"

#include "common/string_util.h"

namespace progres {

void BlockingConfig::AppendKey(int f, int level, const Entity& e,
                               std::string* out) const {
  const FamilySpec& spec = families_[static_cast<size_t>(f)];
  const std::string_view value =
      e.attribute(static_cast<size_t>(spec.attribute_index));
  const size_t len =
      static_cast<size_t>(spec.prefix_lens[static_cast<size_t>(level - 1)]);
  const size_t start = out->size();
  AppendLowerAscii(Prefix(value, len), out);
  for (size_t i = start; i < out->size(); ++i) {
    char& c = (*out)[i];
    if (c == kPathSeparator || c == kTupleSeparator) c = ' ';
  }
}

std::string BlockingConfig::Key(int f, int level, const Entity& e) const {
  std::string key;
  AppendKey(f, level, e, &key);
  return key;
}

std::string BlockingConfig::Path(int f, int level, const Entity& e) const {
  std::string path;
  for (int l = 1; l <= level; ++l) {
    if (l > 1) path.push_back(kPathSeparator);
    AppendKey(f, l, e, &path);
  }
  return path;
}

}  // namespace progres
