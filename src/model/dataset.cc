#include "model/dataset.h"

#include "common/tsv.h"

namespace progres {

EntityId Dataset::Add(std::vector<std::string> attributes) {
  Entity e;
  e.id = static_cast<EntityId>(entities_.size());
  e.attributes = std::move(attributes);
  entities_.push_back(std::move(e));
  return entities_.back().id;
}

int Dataset::AttributeIndex(const std::string& name) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

bool Dataset::SaveTsv(const std::string& path) const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(entities_.size() + 1);
  rows.push_back(schema_);
  for (const Entity& e : entities_) rows.push_back(e.attributes);
  return WriteTsv(path, rows);
}

bool Dataset::LoadTsv(const std::string& path, Dataset* out,
                      std::string* error) {
  std::vector<std::vector<std::string>> rows;
  if (!ReadTsv(path, &rows)) {
    *error = path + ": cannot be read";
    return false;
  }
  if (rows.empty()) {
    *error = path + ": empty file, expected a header row";
    return false;
  }
  const size_t fields = rows.front().size();
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].size() != fields) {
      *error = path + ":" + std::to_string(i + 1) + ": " +
               std::to_string(rows[i].size()) + " fields, the header has " +
               std::to_string(fields);
      return false;
    }
  }
  *out = Dataset(rows.front());
  for (size_t i = 1; i < rows.size(); ++i) out->Add(std::move(rows[i]));
  return true;
}

}  // namespace progres
