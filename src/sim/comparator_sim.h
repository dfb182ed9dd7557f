// Comparator evaluation: running a network as a sorting network.
//
// Per the gate convention (net/network.h) a comparator emits its inputs in
// DESCENDING order across its listed wires, so a sorting network produces a
// non-increasing sequence in logical output order — mirroring the step
// property on the counting side (Figure 2's isomorphism).
#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "net/network.h"
#include "runtime/runtime.h"
#include "seq/sequence_props.h"

namespace scn {

/// Applies every gate of `net` to `values` in place. `values` is indexed by
/// physical wire. `greater(a, b)` must be a strict weak ordering; the gate
/// emits values ordered by it (default: descending numeric).
template <typename T, typename Greater = std::greater<T>>
void apply_comparators(const Network& net, std::span<T> values,
                       Greater greater = {}) {
  std::vector<T> buf;
  for (const Gate& g : net.gates()) {
    const auto ws = net.gate_wires(g);
    if (ws.size() == 2) {
      // 2-wire gates dominate sorting networks: compare-exchange in place,
      // no gather buffer. Equivalent elements are left in place.
      T& a = values[static_cast<std::size_t>(ws[0])];
      T& b = values[static_cast<std::size_t>(ws[1])];
      if (greater(b, a)) std::swap(a, b);
      continue;
    }
    buf.clear();
    for (const Wire w : ws) buf.push_back(values[static_cast<std::size_t>(w)]);
    std::sort(buf.begin(), buf.end(), greater);
    for (std::size_t i = 0; i < ws.size(); ++i) {
      values[static_cast<std::size_t>(ws[i])] = buf[i];
    }
  }
}

/// Runs the network on a copy of `input` (indexed by logical = physical input
/// wire) and returns the values in logical output order.
template <typename T, typename Greater = std::greater<T>>
[[nodiscard]] std::vector<T> comparator_output(const Network& net,
                                               std::span<const T> input,
                                               Greater greater = {}) {
  std::vector<T> values(input.begin(), input.end());
  apply_comparators<T>(net, values, greater);
  std::vector<T> out;
  out.reserve(net.width());
  for (const Wire w : net.output_order()) {
    out.push_back(values[static_cast<std::size_t>(w)]);
  }
  return out;
}

/// Convenience overloads on Count.
[[nodiscard]] std::vector<Count> comparator_output_counts(
    const Network& net, std::span<const Count> input);

/// Sorts `values` ascending using the network (reverses the descending
/// network output). The network width must equal values.size().
///
/// This is the product sort path: it routes through `rt`'s plan cache
/// (opt/plan_cache.h), so repeated sorts on one network reuse one compiled
/// plan. Bit-identical to the per-gate interpreter
/// (comparator_output_counts + reverse), because a plan only regroups
/// independent gates into layers; use the interpreter directly for custom
/// orderings or gate-stepping.
[[nodiscard]] std::vector<Count> network_sort_ascending(
    const Network& net, std::span<const Count> values,
    Runtime& rt = Runtime::shared());

/// True iff output is non-increasing (the sorting-network success criterion
/// under our descending convention).
[[nodiscard]] bool is_sorted_descending(std::span<const Count> x);

}  // namespace scn
