// Exhaustive 0-1 sorting verification on the compiled plan.
//
// The 0-1 principle reduces sortingness to 2^w binary evaluations. They run
// through the engine's own layer walk (run_plan_bit_planes): a wire holds
// one 64-bit word per lane, bit t being its value in test vector t, so a
// compare-exchange is an OR and an AND. Wide gates run through the plan's
// compare-exchange expansion, so the proof covers the plan that sort_batch
// and Sorter run. Cost: 2^w / 64 words, each walked through every
// compare-exchange; width 32 takes seconds, and each further wire doubles it.
#pragma once

#include "net/network.h"
#include "runtime/runtime.h"
#include "verify/sorting_verify.h"

namespace scn {

/// Drop-in replacement for verify_sorting_exhaustive: the same verdict,
/// counterexample and inputs_checked (smallest failing index + 1, or 2^w)
/// at any pool size, with the plan from `rt`'s cache and blocks of 4,096
/// vectors on its pool. Throws std::invalid_argument if net.width() >= 64.
[[nodiscard]] SortingVerdict fast_verify_sorting_exhaustive(
    const Network& net, Runtime& rt = Runtime::shared());

}  // namespace scn
