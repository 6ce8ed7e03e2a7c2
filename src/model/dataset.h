#ifndef PROGRES_MODEL_DATASET_H_
#define PROGRES_MODEL_DATASET_H_

#include <string>
#include <vector>

#include "model/entity.h"

namespace progres {

// A named collection of entities sharing a schema. Entities are stored by id
// (entity(i).id == i), which the generators and TSV loader guarantee.
class Dataset {
 public:
  Dataset() = default;

  // Creates a dataset with the given attribute names.
  explicit Dataset(std::vector<std::string> schema) : schema_(std::move(schema)) {}

  // Appends `entity`, assigning it the next dense id. Returns the id.
  EntityId Add(std::vector<std::string> attributes);

  const Entity& entity(EntityId id) const {
    return entities_[static_cast<size_t>(id)];
  }
  const std::vector<Entity>& entities() const { return entities_; }
  int64_t size() const { return static_cast<int64_t>(entities_.size()); }

  const std::vector<std::string>& schema() const { return schema_; }

  // Returns the index of attribute `name`, or -1 if absent.
  int AttributeIndex(const std::string& name) const;

  // Persists the dataset as TSV (header row = schema, then one row per
  // entity). Returns false on I/O failure.
  bool SaveTsv(const std::string& path) const;

  // Loads a dataset previously written by SaveTsv. On failure returns false
  // and sets `*error` to a message naming `path` and, for a malformed row,
  // its line: the file cannot be read, has no header row, or has a row
  // whose field count differs from the header's.
  static bool LoadTsv(const std::string& path, Dataset* out,
                      std::string* error);

 private:
  std::vector<std::string> schema_;
  std::vector<Entity> entities_;
};

}  // namespace progres

#endif  // PROGRES_MODEL_DATASET_H_
