#include "sim/comparator_sim.h"

#include <algorithm>

#include "engine/backend.h"
#include "opt/plan_cache.h"

namespace scn {

std::vector<Count> comparator_output_counts(const Network& net,
                                            std::span<const Count> input) {
  return comparator_output<Count>(net, input);
}

std::vector<Count> network_sort_ascending(const Network& net,
                                          std::span<const Count> values,
                                          Runtime& rt) {
  const CachedPlan cached = rt.compiled(net);
  std::vector<Count> out =
      engine::sorted_output(*cached.plan, values);
  std::reverse(out.begin(), out.end());
  return out;
}

bool is_sorted_descending(std::span<const Count> x) {
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    if (x[i] < x[i + 1]) return false;
  }
  return true;
}

}  // namespace scn
