// Width-2 gate kernels for the compiled engine's layer walk.
//
// Every comparator a plan runs is a width-2 compare-exchange: width-2 gates
// directly, wider gates through the plan's compile-time compare-exchange
// expansion (execution_plan.h). The walk calls the kernel in its inner
// loop over the lane dimension; with SoA rows it compiles to straight-line
// select/blend code the vectorizer handles across the whole block, and a
// single vector is the same loop at one lane.
//
// The count kernel mirrors the comparator kernel under the Figure 2
// isomorphism: a balancer's quiescent transfer function is
// out[i] = ceil((total - i) / p), which for p == 2 reduces to the branchless
// pair (ceil(total/2), floor(total/2)). Wider balancers are irreducible and
// run in the walk itself as sum-then-redistribute over the lanes.
#pragma once

#include <cstdint>

#include "seq/sequence_props.h"

namespace scn::engine {

/// Width-2 comparator: writes max to `hi`, min to `lo` (descending gate
/// convention). Branchless for arithmetic T.
template <typename T>
inline void pair_sort_kernel(T& hi, T& lo) {
  const T a = hi;
  const T b = lo;
  hi = a > b ? a : b;
  lo = a > b ? b : a;
}

/// One wire in 64 0-1 test vectors: bit t is its value in vector t.
struct BitPlane {
  std::uint64_t bits;
};

/// Width-2 comparator on 64 0-1 vectors: max is OR, min is AND.
inline void pair_sort_kernel(BitPlane& hi, BitPlane& lo) {
  const std::uint64_t a = hi.bits;
  hi.bits |= lo.bits;
  lo.bits &= a;
}

/// Width-2 balancer on quiescent counts: hi gets ceil(total/2), lo gets
/// floor(total/2). Counts are non-negative, so shifts are exact.
inline void pair_count_kernel(Count& hi, Count& lo) {
  const Count total = hi + lo;
  hi = (total + 1) >> 1;
  lo = total >> 1;
}

}  // namespace scn::engine
