// Batcher compare-exchange expansion of a wide comparator gate, used by the
// ExecutionPlan compiler's ce_wires table (engine/execution_plan.cpp). It
// rides baseline/batcher.h for the odd-even construction itself.
#pragma once

#include <span>
#include <vector>

#include "net/network.h"

namespace scn {

/// Appends the compare-exchange expansion of one wide comparator gate over
/// listed wires `ws` to `ce_pairs` as flattened (hi, lo) wire pairs.
///
/// The expansion is the library's Batcher odd-even sorting network over the
/// gate's p positions — O(p log^2 p) CEs vs p(p-1)/2 for transposition —
/// relabeled onto physical wires so no output permutation remains: a
/// sorting network sorts whatever values its cells hold, so mapping cell x
/// to wire ws[index_in_output_order(x)] makes the i-th largest value land
/// on listed wire i, the gate's descending convention, with zero extra
/// moves. Executing the pairs in order is equivalent to the wide gate under
/// COMPARATOR semantics (and only under comparator semantics).
void append_wide_gate_ce(std::span<const Wire> ws, std::vector<Wire>& ce_pairs);

}  // namespace scn
