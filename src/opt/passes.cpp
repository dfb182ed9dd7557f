#include "opt/passes.h"

#include <algorithm>
#include <cstdint>

#include "verify/fast_zero_one.h"

namespace scn {
namespace {

/// The exhaustive 0-1 sweep costs 2^width; wider networks skip
/// zero-one-elim (recorded as not applied).
constexpr std::size_t kZeroOneWidthCap = 16;

/// Rebuilds `net` keeping only gates with keep[gi] != 0, in the original
/// relative order. The builder recomputes ASAP layers, so removal compacts
/// the survivors; depth can only shrink.
Network rebuild_filtered(const Network& net, const std::vector<char>& keep) {
  NetworkBuilder b(net.width());
  for (std::size_t gi = 0; gi < net.gate_count(); ++gi) {
    if (keep[gi]) b.add_balancer(net.gate_wires(gi));
  }
  return std::move(b).finish(
      {net.output_order().begin(), net.output_order().end()});
}

class RelayerPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "relayer"; }

  [[nodiscard]] bool applicable(const Network&,
                                const PassOptions&) const override {
    return true;
  }

  [[nodiscard]] Network run(const Network& net,
                            const PassOptions&) const override {
    // Within one ASAP layer gates touch disjoint wires, so their minimum
    // wire ids are distinct and give a stable canonical order; appending
    // layer-major preserves every cross-layer wire dependency.
    NetworkBuilder b(net.width());
    for (const auto& layer : net.layers()) {
      std::vector<std::pair<Wire, std::size_t>> order;
      order.reserve(layer.size());
      for (const std::size_t gi : layer) {
        const auto ws = net.gate_wires(gi);
        order.emplace_back(*std::min_element(ws.begin(), ws.end()), gi);
      }
      std::sort(order.begin(), order.end());
      for (const auto& [min_wire, gi] : order) {
        b.add_balancer(net.gate_wires(gi));
      }
    }
    return std::move(b).finish(
        {net.output_order().begin(), net.output_order().end()});
  }
};

class DedupAdjacentPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "dedup-adjacent";
  }

  [[nodiscard]] bool applicable(const Network& net,
                                const PassOptions&) const override {
    return net.gate_count() >= 2;
  }

  [[nodiscard]] Network run(const Network& net,
                            const PassOptions&) const override {
    constexpr std::int64_t kNone = -1;
    std::vector<std::int64_t> last_toucher(net.width(), kNone);
    std::vector<char> keep(net.gate_count(), 1);
    for (std::size_t gi = 0; gi < net.gate_count(); ++gi) {
      const auto ws = net.gate_wires(gi);
      const std::int64_t prev =
          last_toucher[static_cast<std::size_t>(ws.front())];
      bool duplicate = prev != kNone;
      for (const Wire w : ws) {
        duplicate =
            duplicate && last_toucher[static_cast<std::size_t>(w)] == prev;
      }
      if (duplicate) {
        const auto prev_ws = net.gate_wires(static_cast<std::size_t>(prev));
        duplicate = std::equal(ws.begin(), ws.end(), prev_ws.begin(),
                               prev_ws.end());
      }
      if (duplicate) {
        // Sorting twice is sorting once, and the quiescent balancer output
        // depends only on the gate total, which the first copy preserved.
        // Dropped gates do not update last_toucher, so runs of three or
        // more identical gates collapse to one.
        keep[gi] = 0;
        continue;
      }
      for (const Wire w : ws) {
        last_toucher[static_cast<std::size_t>(w)] =
            static_cast<std::int64_t>(gi);
      }
    }
    return rebuild_filtered(net, keep);
  }
};

class ZeroOneElimPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "zero-one-elim";
  }

  [[nodiscard]] bool applicable(const Network& net,
                                const PassOptions& opts) const override {
    return opts.semantics == Semantics::kComparator &&
           net.gate_count() > 0 && net.width() <= kZeroOneWidthCap;
  }

  [[nodiscard]] Network run(const Network& net,
                            const PassOptions&) const override {
    // A gate that is the identity on every 0-1 input changes no wire on any
    // input, so all such gates are simultaneously removable: deleting one
    // leaves every evaluation trace bit-identical, keeping the rest noops.
    const std::vector<bool> noop = zero_one_noop_gates(net);
    std::vector<char> keep(net.gate_count(), 1);
    for (std::size_t gi = 0; gi < noop.size(); ++gi) {
      if (noop[gi]) keep[gi] = 0;
    }
    return rebuild_filtered(net, keep);
  }
};

}  // namespace

std::unique_ptr<Pass> make_relayer_pass() {
  return std::make_unique<RelayerPass>();
}

std::unique_ptr<Pass> make_dedup_adjacent_pass() {
  return std::make_unique<DedupAdjacentPass>();
}

std::unique_ptr<Pass> make_zero_one_elim_pass() {
  return std::make_unique<ZeroOneElimPass>();
}

}  // namespace scn
