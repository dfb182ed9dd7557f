// The concrete passes shipped with the pipeline. Each factory returns a
// stateless Pass; soundness arguments live in docs/passes.md.
#pragma once

#include <memory>

#include "opt/pass.h"

namespace scn {

/// "relayer" — recomputes ASAP layers and rewrites the gate stream in
/// canonical (layer-major, min-wire within layer) order. Semantics-free:
/// gates within a layer touch disjoint wires and commute; cross-layer
/// dependency order is preserved. Never increases depth, and after a
/// gate-removing pass it packs the survivors into the minimum layer count.
/// Idempotent; gives structurally identical networks identical gate
/// streams, which is what makes structural_hash() canonical.
[[nodiscard]] std::unique_ptr<Pass> make_relayer_pass();

/// "dedup-adjacent" — removes a gate whose listed wire sequence is
/// identical to the previous gate that touched its wires, with no other
/// gate intervening on any of them. Sound for BOTH semantics: sorting is
/// idempotent, and quiescent balancer redistribution out[i] =
/// ceil((N - i)/p) depends only on the (unchanged) gate total N.
[[nodiscard]] std::unique_ptr<Pass> make_dedup_adjacent_pass();

/// "zero-one-elim" — removes every gate that is the identity on all 2^w
/// 0-1 inputs, established by the bit-sliced sweep in verify/fast_zero_one
/// (zero_one_noop_gates). By the 0-1 principle a comparator that never
/// fires on binary inputs never fires at all, so removal is sound for
/// comparator semantics; it is UNSOUND for balancers (an already-"sorted"
/// wire pair still exchanges tokens) and is skipped for them, as it is for
/// networks wider than 16 wires (the sweep costs 2^width).
[[nodiscard]] std::unique_ptr<Pass> make_zero_one_elim_pass();

}  // namespace scn
