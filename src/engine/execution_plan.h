// ExecutionPlan — a compiled, layer-partitioned form of a Network.
//
// The interpreters in src/sim/ walk the gate list one gate at a time through
// Gate/span indirection. That is the right shape for schedule-sensitive
// simulation, but for bulk evaluation (sorting big batches, count sweeps in
// the verifiers) it wastes the structure the paper fights for: a small-depth
// network is a short sequence of LAYERS of independent bounded-width gates
// (Prop 6 / Theorem 7), and independence within a layer is exactly what a
// vectorizing/parallel runtime needs.
//
// compile_plan() lowers a Network into that form once:
//   * gates are bucketed by ASAP layer (layer count == Network::depth())
//     and ordered within each layer by minimum wire
//     (Network::canonical_layers()), so networks that differ only in the
//     order of independent gates compile to identical plans;
//   * within each layer, width-2 gates — the overwhelmingly common case for
//     sorting networks — are flattened into a contiguous (hi, lo) wire-pair
//     table driven by a branchless min/max kernel;
//   * wider gates keep an offset/width descriptor into a flat wire table
//     (the count path needs the gate as a unit: a width-p balancer is NOT a
//     network of 2-balancers — that is the paper's Figure 3 point), and are
//     ADDITIONALLY expanded into a compare-exchange pair sequence (Batcher
//     odd-even, relabeled onto the gate's physical wires) so the comparator
//     path runs branchless min/max only, with no per-lane gather/scatter.
//
// The plan is a pure description. One layer walk in engine/batch_engine.h
// executes it for every entry point — one vector is the walk at one lane,
// a batch the walk over many — and the same plan drives both comparator
// values and quiescent count propagation, so the fast path serves sim/ and
// verify/ alike. Semantics are bit-identical to the per-gate interpreters by
// construction: layers preserve the topological gate order's effect because
// no wire is touched twice within a layer.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.h"

namespace scn {

/// Which gate algebra a plan walk applies: the same plan drives both.
enum class Semantics : std::uint8_t {
  kComparator,  ///< gates sort their wires descending (sorting networks)
  kBalancer,    ///< gates redistribute quiescent token counts (counting)
};

class ExecutionPlan {
 public:
  /// A width>2 gate: `first` indexes into wide_wires(), `width` wires.
  struct WideGate {
    std::uint32_t first = 0;
    std::uint32_t width = 0;
  };

  /// One layer of mutually independent gates. Pair gates live in
  /// pair_wires()[2*pair_begin, 2*pair_end); wide gates in
  /// wide_gates()[wide_begin, wide_end); the wide gates' compare-exchange
  /// expansion in ce_wires()[2*ce_begin, 2*ce_end).
  struct Layer {
    std::uint32_t pair_begin = 0;
    std::uint32_t pair_end = 0;
    std::uint32_t wide_begin = 0;
    std::uint32_t wide_end = 0;
    std::uint32_t ce_begin = 0;
    std::uint32_t ce_end = 0;
  };

  ExecutionPlan() = default;

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::uint32_t depth() const {
    return static_cast<std::uint32_t>(layers_.size());
  }
  [[nodiscard]] std::size_t gate_count() const { return gate_count_; }

  [[nodiscard]] const std::vector<Layer>& layers() const { return layers_; }
  /// Flattened (wire_hi, wire_lo) pairs for all width-2 gates, layer-major.
  /// Pair k occupies indices 2k and 2k+1; the first listed wire receives the
  /// larger value (descending gate convention).
  [[nodiscard]] const std::vector<Wire>& pair_wires() const {
    return pair_wires_;
  }
  [[nodiscard]] const std::vector<WideGate>& wide_gates() const {
    return wide_gates_;
  }
  [[nodiscard]] const std::vector<Wire>& wide_wires() const {
    return wide_wires_;
  }
  /// Compare-exchange expansion of the wide gates (comparator semantics
  /// only): flattened (hi, lo) wire pairs, executed in order. Within a
  /// layer, pairs from different gates never share wires; pairs from the
  /// same gate form a Batcher odd-even sorting network over its wires,
  /// relabeled so the sorted result lands per the gate's listed order.
  [[nodiscard]] const std::vector<Wire>& ce_wires() const { return ce_wires_; }
  /// Same as Network::output_order().
  [[nodiscard]] const std::vector<Wire>& output_order() const {
    return output_order_;
  }
  /// Largest wide-gate width (0 if the plan is pure width-2).
  [[nodiscard]] std::uint32_t max_wide_width() const { return max_wide_width_; }

 private:
  friend ExecutionPlan compile_plan(const Network& net);

  std::size_t width_ = 0;
  std::size_t gate_count_ = 0;
  std::uint32_t max_wide_width_ = 0;
  std::vector<Layer> layers_;
  std::vector<Wire> pair_wires_;
  std::vector<WideGate> wide_gates_;
  std::vector<Wire> wide_wires_;
  std::vector<Wire> ce_wires_;
  std::vector<Wire> output_order_;
};

/// Lowers `net` into a layer-partitioned plan. O(gates + endpoints).
[[nodiscard]] ExecutionPlan compile_plan(const Network& net);

}  // namespace scn
