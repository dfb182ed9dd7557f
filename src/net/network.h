// Network intermediate representation.
//
// A balancing (or comparator) network is an acyclic arrangement of p-input/
// p-output gates over `width` physical wires. We exploit the standard
// lane model: every gate reads and writes a set of physical wires in place,
// and inter-stage permutation wiring is represented by *logical order*
// vectors (a permutation of physical wire ids) rather than by explicit
// crossing wires. This matches how the paper's constructions compose: a
// sub-network is handed its input sequence as an ordered list of physical
// wires and reports the ordered list its (step) output occupies.
//
// Gate semantics (fixing the isomorphism of paper §1/Figure 2):
//   * as a BALANCER of width p, the k-th token to enter leaves on the gate's
//     listed wire k mod p; in a quiescent state with N tokens total the wire
//     listed at position i has seen ceil((N - i)/p) tokens;
//   * as a COMPARATOR of width p, the i-th LARGEST input value leaves on the
//     listed wire i (descending order), so that step sequences — which are
//     non-increasing — play the role of sorted outputs.
//
// Depth is computed by ASAP layering: a gate's layer is one more than the
// maximum layer among the gates that previously touched any of its wires.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace scn {

class ModuleCache;  // core/module.h — the builder only carries a handle

using Wire = std::int32_t;

/// One gate (balancer/comparator). Wires are stored flattened in the owning
/// Network; a Gate is a view descriptor.
struct Gate {
  std::uint32_t first = 0;  ///< offset into Network::gate_wires()
  std::uint32_t width = 0;  ///< number of wires (p)
  std::uint32_t layer = 0;  ///< 1-based ASAP layer
};

class Network;

/// Incrementally builds a Network. Construction functions in src/core/
/// append gates through this interface and keep logical order in their own
/// wire vectors.
class NetworkBuilder {
 public:
  /// `module_cache` attaches the interning context the src/core
  /// constructors consult while composing through this builder (they fall
  /// back to the process-wide cache when none is attached — see
  /// module_cache_for() in core/module.h). The builder itself never
  /// dereferences it; it only carries the handle down the recursive
  /// construction, which is what lets a Runtime's cache reach every
  /// sub-module build without threading an argument through each one.
  explicit NetworkBuilder(std::size_t width,
                          ModuleCache* module_cache = nullptr);

  /// Appends a gate across `wires` (logical order = listed order).
  /// Width-0 and width-1 gates are silently dropped: they are identity.
  /// Precondition: wires are distinct and < width(). Builds with
  /// SCNET_CHECKED validate the precondition and throw
  /// std::invalid_argument on violation; otherwise it is assert-only.
  void add_balancer(std::span<const Wire> wires);
  void add_balancer(std::initializer_list<Wire> wires);

  /// Splices every gate of `tmpl` — a network over canonical wires
  /// 0..tmpl.width()-1 — into this builder, relocating template wire w to
  /// wires[w]. Gates keep their template order; layers are recomputed by
  /// ASAP against this builder's current wire state, exactly as a
  /// gate-by-gate rebuild would. Returns the composed logical output
  /// order: out[i] = wires[tmpl.output_order()[i]].
  /// Precondition: |wires| == tmpl.width(), wires distinct and < width()
  /// (validated under SCNET_CHECKED, like add_balancer).
  std::vector<Wire> stamp(const Network& tmpl, std::span<const Wire> wires);

  [[nodiscard]] std::size_t width() const { return wire_layer_.size(); }
  [[nodiscard]] std::size_t gate_count() const { return gates_.size(); }

  /// The attached interning context (nullptr => none; constructors use the
  /// process-wide cache).
  [[nodiscard]] ModuleCache* module_cache() const { return module_cache_; }

  /// Current ASAP depth (max layer over all gates so far).
  [[nodiscard]] std::uint32_t depth() const { return depth_; }

  /// Finalizes. `output_order[i]` is the physical wire carrying logical
  /// output element i; it must be a permutation of 0..width-1.
  /// The builder is consumed.
  [[nodiscard]] Network finish(std::vector<Wire> output_order) &&;

  /// Finalizes with the identity output order.
  [[nodiscard]] Network finish_identity() &&;

 private:
  /// Validates the add_balancer/stamp wire contract (distinct, in range);
  /// throws std::invalid_argument when built with SCNET_CHECKED, no-op
  /// otherwise. `what` names the offending operation in the diagnostic.
  void check_wires(std::span<const Wire> wires, const char* what);

  std::vector<Gate> gates_;
  std::vector<Wire> gate_wires_;
  std::vector<std::uint32_t> wire_layer_;  // last layer touching each wire
  std::vector<std::uint32_t> seen_mark_;   // contract-check scratch
  std::uint32_t seen_epoch_ = 0;
  std::uint32_t depth_ = 0;
  ModuleCache* module_cache_ = nullptr;
};

/// An immutable balancing/comparator network.
class Network {
 public:
  Network() = default;

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t gate_count() const { return gates_.size(); }
  [[nodiscard]] std::uint32_t depth() const { return depth_; }

  /// Gates in topological order.
  [[nodiscard]] std::span<const Gate> gates() const { return gates_; }

  /// The wires of gate g, in the gate's logical order.
  [[nodiscard]] std::span<const Wire> gate_wires(const Gate& g) const {
    return {gate_wires_.data() + g.first, g.width};
  }
  [[nodiscard]] std::span<const Wire> gate_wires(std::size_t gate_index) const {
    return gate_wires(gates_[gate_index]);
  }

  /// output_order()[i] = physical wire of logical output i.
  [[nodiscard]] std::span<const Wire> output_order() const {
    return output_order_;
  }
  /// logical output position of physical wire ww.
  [[nodiscard]] std::size_t output_position(Wire w) const {
    return inverse_output_order_[static_cast<std::size_t>(w)];
  }

  /// Largest gate width in the network (the paper's "balancer size").
  [[nodiscard]] std::uint32_t max_gate_width() const { return max_gate_width_; }

  /// Histogram of gate widths: hist[p] = number of width-p gates.
  [[nodiscard]] std::vector<std::size_t> gate_width_histogram() const;

  /// Total number of wire endpoints (sum of gate widths); proportional to
  /// hardware cost / shared-memory footprint.
  [[nodiscard]] std::size_t wire_endpoint_count() const {
    return gate_wires_.size();
  }

  /// Structural validation: wire ids in range, wires distinct within each
  /// gate, layers consistent with ASAP order, output order a permutation.
  /// Returns an empty string if valid, else a diagnostic.
  [[nodiscard]] std::string validate() const;

  /// Gates grouped by layer: result[l] lists gate indices with layer l+1.
  [[nodiscard]] std::vector<std::vector<std::size_t>> layers() const;

  /// layers() with each layer ordered by its gates' minimum wire: the
  /// canonical order compile_plan() and structural_hash() share, so two
  /// networks that differ only in the order of independent gates compile
  /// to the same plan and hash alike.
  [[nodiscard]] std::vector<std::vector<std::size_t>> canonical_layers() const;

 private:
  friend class NetworkBuilder;

  std::size_t width_ = 0;
  std::uint32_t depth_ = 0;
  std::uint32_t max_gate_width_ = 0;
  std::vector<Gate> gates_;
  std::vector<Wire> gate_wires_;
  std::vector<Wire> output_order_;
  std::vector<std::size_t> inverse_output_order_;
};

/// Convenience: identity order 0..w-1.
[[nodiscard]] std::vector<Wire> identity_order(std::size_t w);

/// True when the library was compiled with SCNET_CHECKED, i.e. when
/// NetworkBuilder validates wire contracts at runtime (and throws) instead
/// of relying on assert-only preconditions. Lets tests skip contract cases
/// the current build cannot observe.
[[nodiscard]] bool builder_checks_enabled();

}  // namespace scn
