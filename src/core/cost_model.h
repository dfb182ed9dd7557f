// Analytic cost model: exact gate and wire-endpoint counts for the paper's
// constructions, computed from the recurrences of §4 without building the
// network. Uses:
//   * sizing enormous instances (K(8^10) has ~10^9 wires — countable here,
//     not materializable);
//   * structural regression: the built networks must match these counts
//     exactly, which pins every branch of the construction code.
//
// The model is generic over the base C(p, q) cost, mirroring BaseFactory.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "core/staircase_merger.h"

namespace scn {

struct NetworkCost {
  std::size_t gates = 0;
  std::size_t endpoints = 0;  ///< sum of gate widths

  NetworkCost& operator+=(const NetworkCost& other) {
    gates += other.gates;
    endpoints += other.endpoints;
    return *this;
  }
  friend NetworkCost operator+(NetworkCost a, const NetworkCost& b) {
    a += b;
    return a;
  }
  friend NetworkCost operator*(std::size_t k, NetworkCost c) {
    c.gates *= k;
    c.endpoints *= k;
    return c;
  }
  friend bool operator==(const NetworkCost&, const NetworkCost&) = default;
};

/// Cost of the assumed base network C(p, q).
using BaseCost = std::function<NetworkCost(std::size_t p, std::size_t q)>;

/// The K base: one (p*q)-balancer.
[[nodiscard]] BaseCost single_balancer_cost();

/// Two-merger T(p, q0, q1): p row gates of width q0+q1 plus (q0+q1) column
/// gates of width p (plain), or with each row substituted by T(q, 1, 1)
/// (capped; requires q0 == q1).
[[nodiscard]] NetworkCost two_merger_cost(std::size_t p, std::size_t q0,
                                          std::size_t q1, bool capped);

/// Bitonic-converter D(p, q).
[[nodiscard]] NetworkCost bitonic_converter_cost(std::size_t p, std::size_t q);

/// Staircase-merger S(r, p, q) under the given variant and base.
[[nodiscard]] NetworkCost staircase_cost(std::size_t r, std::size_t p,
                                         std::size_t q, const BaseCost& base,
                                         StaircaseVariant variant);

/// Merger M(factors) (§4.2 recurrence).
[[nodiscard]] NetworkCost merger_cost(std::span<const std::size_t> factors,
                                      const BaseCost& base,
                                      StaircaseVariant variant);

/// Counting network C(factors) (§4.1 recurrence); n == 1 is one balancer.
[[nodiscard]] NetworkCost counting_cost(std::span<const std::size_t> factors,
                                        const BaseCost& base,
                                        StaircaseVariant variant);

/// K(factors) = counting_cost with the single-balancer base and the
/// rebalance-count staircase.
[[nodiscard]] NetworkCost k_cost(std::span<const std::size_t> factors);

/// R(p, q) (§5.3), including every degenerate-quadrant branch.
[[nodiscard]] NetworkCost r_cost(std::size_t p, std::size_t q);

/// L(factors) = counting_cost with the R base and the rebalance-bitonic
/// staircase.
[[nodiscard]] NetworkCost l_cost(std::span<const std::size_t> factors);

}  // namespace scn
