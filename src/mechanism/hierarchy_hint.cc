#include "mechanism/hierarchy_hint.h"

#include "mechanism/resolve_loop.h"

namespace progres {

ResolveOutcome HierarchyHintMechanism::Resolve(
    const ResolveRequest& request) const {
  using mechanism_internal::ResolveLoop;
  const std::vector<const Entity*>& block = *request.block;
  const int64_t n = static_cast<int64_t>(block.size());

  request.clock->Charge(CostA(n, costs_));
  ResolveLoop loop(request, costs_);
  if (n < 2) return loop.Finish();

  const std::vector<int> order =
      mechanism_internal::SortedOrder(block, request.sort_attribute);
  const int64_t max_distance =
      std::min<int64_t>(request.options.window - 1, n - 1);
  const auto entity_at = [&](int64_t rank) -> const Entity& {
    return *block[static_cast<size_t>(order[static_cast<size_t>(rank)])];
  };

  // Level 0: all pairs inside each finest partition, by rank distance.
  const int64_t leaf = leaf_size_;
  for (int64_t d = 1; d < leaf && d <= max_distance; ++d) {
    for (int64_t start = 0; start < n; start += leaf) {
      const int64_t end = std::min(start + leaf, n);
      for (int64_t i = start; i + d < end; ++i) {
        if (!loop.ProcessPair(entity_at(i), entity_at(i + d))) {
          return loop.Finish();
        }
      }
    }
  }

  // Coarser levels: each parent partition contributes only the pairs that
  // span its two children, in non-decreasing rank distance.
  for (int64_t p = leaf * 2; p / 2 < n; p *= 2) {
    const int64_t half = p / 2;
    for (int64_t d = 1; d <= max_distance; ++d) {
      for (int64_t start = 0; start < n; start += p) {
        const int64_t mid = start + half;
        if (mid >= n) continue;
        const int64_t end = std::min(start + p, n);
        // Pairs (i, i + d) with i in the left child and i + d in the right.
        const int64_t lo = std::max(start, mid - d);
        const int64_t hi = std::min(mid, end - d);
        for (int64_t i = lo; i < hi; ++i) {
          if (!loop.ProcessPair(entity_at(i), entity_at(i + d))) {
            return loop.Finish();
          }
        }
      }
    }
  }
  return loop.Finish();
}

}  // namespace progres
