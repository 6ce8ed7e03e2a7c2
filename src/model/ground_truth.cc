#include "model/ground_truth.h"

#include <unordered_map>

#include "common/string_util.h"
#include "common/tsv.h"

namespace progres {

GroundTruth::GroundTruth(std::vector<int32_t> cluster_of)
    : cluster_of_(std::move(cluster_of)) {
  std::unordered_map<int32_t, int64_t> sizes;
  for (int32_t c : cluster_of_) ++sizes[c];
  for (const auto& [cluster, n] : sizes) {
    (void)cluster;
    num_duplicate_pairs_ += n * (n - 1) / 2;
  }
}

std::vector<PairKey> GroundTruth::AllDuplicatePairs() const {
  std::unordered_map<int32_t, std::vector<EntityId>> members;
  for (size_t i = 0; i < cluster_of_.size(); ++i) {
    members[cluster_of_[i]].push_back(static_cast<EntityId>(i));
  }
  std::vector<PairKey> pairs;
  pairs.reserve(static_cast<size_t>(num_duplicate_pairs_));
  for (const auto& [cluster, ids] : members) {
    (void)cluster;
    for (size_t i = 0; i < ids.size(); ++i) {
      for (size_t j = i + 1; j < ids.size(); ++j) {
        pairs.push_back(MakePairKey(ids[i], ids[j]));
      }
    }
  }
  return pairs;
}

bool GroundTruth::SaveTsv(const std::string& path) const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(cluster_of_.size());
  for (size_t i = 0; i < cluster_of_.size(); ++i) {
    rows.push_back({std::to_string(i), std::to_string(cluster_of_[i])});
  }
  return WriteTsv(path, rows);
}

bool GroundTruth::LoadTsv(const std::string& path, GroundTruth* out,
                          std::string* error) {
  std::vector<std::vector<std::string>> rows;
  if (!ReadTsv(path, &rows)) {
    *error = path + ": cannot be read";
    return false;
  }
  std::vector<int32_t> cluster_of(rows.size(), 0);
  // The line that set each entity's cluster, 0 while none has.
  std::vector<size_t> line_of(rows.size(), 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    const std::vector<std::string>& row = rows[i];
    const auto fail = [&](const std::string& what) {
      *error = path + ":" + std::to_string(i + 1) + ": " + what;
      return false;
    };
    int32_t id = 0;
    int32_t cluster = 0;
    if (row.size() != 2) {
      return fail(std::to_string(row.size()) +
                  " fields, expected 2 (entity_id, cluster_id)");
    }
    if (!ParseInt32(row[0], &id)) {
      return fail("entity id '" + row[0] + "' is not an integer");
    }
    if (!ParseInt32(row[1], &cluster)) {
      return fail("cluster id '" + row[1] + "' is not an integer");
    }
    if (id < 0 || static_cast<size_t>(id) >= rows.size()) {
      return fail("entity id " + row[0] + " is outside [0, " +
                  std::to_string(rows.size()) + "), the file's row count");
    }
    size_t& first = line_of[static_cast<size_t>(id)];
    if (first != 0) {
      return fail("entity id " + row[0] + " repeats line " +
                  std::to_string(first));
    }
    first = i + 1;
    cluster_of[static_cast<size_t>(id)] = cluster;
  }
  *out = GroundTruth(std::move(cluster_of));
  return true;
}

}  // namespace progres
