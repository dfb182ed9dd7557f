// The inductive constructions of §4 are parameterized by "the network
// C(p, q), given by assumption" — a width-(p*q) counting network used as the
// induction base and inside the staircase-merger. A BaseFactory supplies it:
//
//   * K (§5.1) passes a factory emitting one (p*q)-balancer  (d = 1);
//   * L (§5.2) passes a factory emitting R(p, q)              (d <= 16);
//   * tests pass arbitrary callables to exercise Prop 1 generically.
//
// The factory receives the logical input order (`wires`, |wires| == p*q) and
// must return the logical output order of a step-property-producing network
// appended to the builder.
//
// For the Module IR, a BaseFactory carries a *kind* tag: the two known
// bases (single balancer, R network) are pure functions of (p, q) and can
// therefore participate in module cache keys, letting S/M/C instantiations
// that embed them intern their templates. An arbitrary callable is kCustom
// and opts the enclosing construction out of interning (it builds through
// its imperative `_cold` body inline).
#pragma once

#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/network.h"

namespace scn {

enum class BaseKind : std::uint8_t {
  kSingleBalancer,  ///< one (p*q)-balancer, depth 1 (the K base)
  kRNetwork,        ///< R(p, q), depth <= 16 (the L base)
  kCustom,          ///< arbitrary callable; not module-cacheable
};

class BaseFactory {
 public:
  using Fn = std::function<std::vector<Wire>(
      NetworkBuilder&, std::span<const Wire> wires, std::size_t p,
      std::size_t q)>;

  /// Wraps an arbitrary callable as a kCustom base (source-compatible with
  /// the old `std::function` typedef: lambdas still convert implicitly).
  template <typename F,
            std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BaseFactory> &&
                    std::is_invocable_r_v<std::vector<Wire>, F&,
                                          NetworkBuilder&,
                                          std::span<const Wire>, std::size_t,
                                          std::size_t>,
                int> = 0>
  BaseFactory(F&& fn)  // NOLINT(google-explicit-constructor)
      : kind_(BaseKind::kCustom), fn_(std::forward<F>(fn)) {}

  /// Appends the base C(p, q) over `wires` and returns its logical output
  /// order. Known kinds dispatch to their construction (which interns
  /// through the module cache); kCustom invokes the wrapped callable.
  std::vector<Wire> operator()(NetworkBuilder& builder,
                               std::span<const Wire> wires, std::size_t p,
                               std::size_t q) const;

  [[nodiscard]] BaseKind kind() const { return kind_; }
  /// True when this base can be a module cache key component.
  [[nodiscard]] bool cacheable() const { return kind_ != BaseKind::kCustom; }

 private:
  friend BaseFactory single_balancer_base();
  friend BaseFactory r_network_base();
  explicit BaseFactory(BaseKind kind) : kind_(kind) {}

  BaseKind kind_;
  Fn fn_;  // only set for kCustom
};

/// The K base: a single balancer of width p*q across all wires (depth 1).
[[nodiscard]] BaseFactory single_balancer_base();

/// The L base: R(p, q) (§5.3), depth <= 16, balancers <= max(p, q).
[[nodiscard]] BaseFactory r_network_base();

}  // namespace scn
