#include "blocking/forest.h"

#include <algorithm>

namespace progres {

namespace {

// Joins the elements of `parts` selected by `subset_mask` with
// kTupleSeparator. `parts` are the root keys of the dominating families.
std::string ProjectTuple(const std::vector<std::string_view>& parts,
                         uint32_t subset_mask) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if ((subset_mask >> i) & 1u) {
      if (!out.empty()) out.push_back(kTupleSeparator);
      out.append(parts[i]);
    }
  }
  return out;
}

}  // namespace

std::vector<Forest> BuildForests(const Dataset& dataset,
                                 const BlockingConfig& config,
                                 bool keep_members) {
  std::vector<Forest> forests(static_cast<size_t>(config.num_families()));
  for (int f = 0; f < config.num_families(); ++f) {
    Forest& forest = forests[static_cast<size_t>(f)];
    forest.family = f;
    const int levels = config.family(f).levels();
    for (const Entity& e : dataset.entities()) {
      std::string path;
      int parent = -1;
      for (int level = 1; level <= levels; ++level) {
        if (level > 1) path.push_back(kPathSeparator);
        config.AppendKey(f, level, e, &path);
        auto [it, inserted] = forest.by_path.try_emplace(
            path, static_cast<int>(forest.nodes.size()));
        if (inserted) {
          BlockNode node;
          node.id = {f, level, path};
          node.parent = parent;
          forest.nodes.push_back(std::move(node));
          if (parent >= 0) {
            forest.nodes[static_cast<size_t>(parent)].children.push_back(
                it->second);
          } else {
            forest.roots.push_back(it->second);
          }
        }
        BlockNode& node = forest.nodes[static_cast<size_t>(it->second)];
        ++node.size;
        if (keep_members) node.entities.push_back(e.id);
        parent = it->second;
      }
    }
  }
  return forests;
}

int64_t UncoveredFromJointCounts(
    const std::unordered_map<std::string, int64_t>& joint,
    int num_dominating) {
  if (num_dominating <= 0) return 0;
  int64_t uncov = 0;
  const uint32_t full = (1u << num_dominating) - 1u;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    const int k = __builtin_popcount(mask);
    // Project every tuple onto the subset and sum counts; blocks sharing all
    // subset families' roots contribute Pairs(count) overlapping pairs.
    std::unordered_map<std::string, int64_t> projected;
    for (const auto& [tuple, count] : joint) {
      std::vector<std::string_view> parts;
      parts.reserve(static_cast<size_t>(num_dominating));
      size_t start = 0;
      const std::string_view t(tuple);
      for (int d = 0; d < num_dominating; ++d) {
        size_t end = t.find(kTupleSeparator, start);
        if (end == std::string_view::npos) end = t.size();
        parts.push_back(t.substr(start, end - start));
        start = end + 1;
      }
      projected[ProjectTuple(parts, mask)] += count;
    }
    int64_t term = 0;
    for (const auto& [key, count] : projected) {
      (void)key;
      term += PairsOf(count);
    }
    uncov += (k % 2 == 1) ? term : -term;
  }
  return uncov;
}

void ComputeUncoveredPairs(const Dataset& dataset, const BlockingConfig& config,
                           std::vector<Forest>* forests) {
  const int num_families = config.num_families();
  if (num_families <= 1) return;

  // Root key (level-1 blocking key) of every entity under every family,
  // computed once. Root paths equal root keys because roots are level 1.
  std::vector<std::vector<std::string>> root_key(
      static_cast<size_t>(num_families));
  for (int f = 0; f < num_families; ++f) {
    root_key[static_cast<size_t>(f)].reserve(
        static_cast<size_t>(dataset.size()));
    for (const Entity& e : dataset.entities()) {
      root_key[static_cast<size_t>(f)].push_back(config.Key(f, 1, e));
    }
  }

  for (int f = 1; f < num_families; ++f) {
    Forest& forest = (*forests)[static_cast<size_t>(f)];
    // Per-node joint counts: tuple of dominating-family root keys -> number
    // of the node's entities carrying that tuple (the OLP(.) values of
    // Sec. IV-A at their finest granularity).
    std::vector<std::unordered_map<std::string, int64_t>> joint(
        forest.nodes.size());
    const int levels = config.family(f).levels();
    for (const Entity& e : dataset.entities()) {
      std::string tuple;
      for (int d = 0; d < f; ++d) {
        if (d > 0) tuple.push_back(kTupleSeparator);
        tuple += root_key[static_cast<size_t>(d)][static_cast<size_t>(e.id)];
      }
      std::string path;
      for (int level = 1; level <= levels; ++level) {
        if (level > 1) path.push_back(kPathSeparator);
        config.AppendKey(f, level, e, &path);
        const int node_index = forest.Find(path);
        ++joint[static_cast<size_t>(node_index)][tuple];
      }
    }
    for (size_t n = 0; n < forest.nodes.size(); ++n) {
      forest.nodes[n].uncov = UncoveredFromJointCounts(joint[n], f);
    }
  }
}

}  // namespace progres
