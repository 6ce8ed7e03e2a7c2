#include "mechanism/resolve_loop.h"

#include <algorithm>
#include <cmath>

namespace progres {
namespace mechanism_internal {

std::vector<int> SortedOrder(const std::vector<const Entity*>& block,
                             int sort_attribute) {
  std::vector<int> order(block.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const std::string_view va =
        block[static_cast<size_t>(a)]->attribute(static_cast<size_t>(sort_attribute));
    const std::string_view vb =
        block[static_cast<size_t>(b)]->attribute(static_cast<size_t>(sort_attribute));
    if (va != vb) return va < vb;
    return block[static_cast<size_t>(a)]->id < block[static_cast<size_t>(b)]->id;
  });
  return order;
}

}  // namespace mechanism_internal

double CostA(int64_t n, const MechanismCosts& costs) {
  if (n <= 0) return 0.0;
  const double log_n = n > 1 ? std::log2(static_cast<double>(n)) : 1.0;
  return costs.read_per_entity * static_cast<double>(n) +
         costs.sort_per_entity_log2 * static_cast<double>(n) * log_n;
}

}  // namespace progres
