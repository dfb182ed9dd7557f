// Bit-sliced exhaustive 0-1 sorting verification.
//
// The 0-1 principle reduces sortingness to 2^w binary evaluations. This
// verifier processes 64 test vectors per pass: each wire holds a 64-bit
// mask (bit t = the wire's value in test vector t), and a p-comparator on
// 0/1 values becomes "wire i := 1 iff at least i+1 of the p inputs are 1",
// computed with a bit-sliced ripple-carry popcount and bitwise threshold
// comparisons. ~64x faster than scalar evaluation, which moves exhaustive
// proofs from w <= 16 to w <= 24 territory in the same budget.
#pragma once

#include "net/network.h"
#include "verify/sorting_verify.h"

namespace scn {

/// Drop-in replacement for verify_sorting_exhaustive (same verdict
/// semantics, counterexample reconstructed on failure). Requires
/// net.width() <= 26.
[[nodiscard]] SortingVerdict fast_verify_sorting_exhaustive(const Network& net);

}  // namespace scn
