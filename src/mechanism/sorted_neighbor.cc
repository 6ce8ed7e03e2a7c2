#include "mechanism/sorted_neighbor.h"

#include "mechanism/resolve_loop.h"

namespace progres {

ResolveOutcome SortedNeighborMechanism::Resolve(
    const ResolveRequest& request) const {
  using mechanism_internal::ResolveLoop;
  const std::vector<const Entity*>& block = *request.block;
  const int64_t n = static_cast<int64_t>(block.size());

  request.clock->Charge(CostA(n, costs_));
  ResolveLoop loop(request, costs_);
  if (n < 2) return loop.Finish();

  const std::vector<int> order =
      mechanism_internal::SortedOrder(block, request.sort_attribute);

  const mechanism_internal::PairRestriction restriction(request.options);
  int64_t index = -1;
  const int64_t max_distance =
      std::min<int64_t>(request.options.window - 1, n - 1);
  for (int64_t d = 1; d <= max_distance; ++d) {
    for (int64_t i = 0; i + d < n; ++i) {
      ++index;
      if (restriction.active()) {
        if (restriction.Exhausted(index)) return loop.Finish();
        if (!restriction.Admits(i, i + d, index)) continue;
      }
      const Entity& a = *block[static_cast<size_t>(order[static_cast<size_t>(i)])];
      const Entity& b =
          *block[static_cast<size_t>(order[static_cast<size_t>(i + d)])];
      if (!loop.ProcessPair(a, b)) return loop.Finish();
    }
  }
  return loop.Finish();
}

}  // namespace progres
