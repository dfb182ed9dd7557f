// The network *family* view (paper §1, §6): for a fixed width w, every
// factorization w = p0*...*p(n-1) yields a distinct network, trading depth
// (grows with n) against balancer width (grows with max p_i). This module
// materializes family members with their structural statistics so examples
// and benchmarks can explore the trade-off directly.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "net/network.h"
#include "runtime/runtime.h"

namespace scn {

enum class NetworkKind : std::uint8_t {
  kK,  ///< §5.1: balancers up to max(p_i * p_j), depth 1.5n^2-3.5n+2
  kL,  ///< §5.2: balancers up to max(p_i),       depth <= 9.5n^2-12.5n+3
};

[[nodiscard]] const char* to_string(NetworkKind kind);

struct FamilyMember {
  std::vector<std::size_t> factors;
  NetworkKind kind = NetworkKind::kK;
  Network network;

  // Paper-side numbers.
  std::size_t formula_depth = 0;       ///< exact (K) or upper bound (L)
  std::size_t width_bound = 0;         ///< max(p_i p_j) for K, max(p_i) for L

  [[nodiscard]] std::string label() const;
};

/// Builds the family member for one factorization (templates intern into
/// `rt`'s module cache).
[[nodiscard]] FamilyMember make_family_member(
    std::span<const std::size_t> factors, NetworkKind kind,
    Runtime& rt = Runtime::shared());

/// Builds members for every unordered factorization of w (optionally
/// truncated to `limit` members; 0 = all).
[[nodiscard]] std::vector<FamilyMember> enumerate_family(
    std::size_t w, NetworkKind kind, std::size_t limit = 0,
    Runtime& rt = Runtime::shared());

/// The library's network chooser (Sorter and Counter call it): a width-w
/// network whose balancers do not exceed `max_balancer` when a balanced
/// factorization of w permits it, choosing the one with the fewest factors
/// (balanced_factorization over every packing target). That is not always
/// the shallowest member within the cap — at w=16, K, cap 8 it picks
/// K(2x2x2x2) at depth 12 where K(2x2x4) at depth 5 fits. Otherwise it is
/// best-effort: the member minimizing the balancer bound (e.g. w with a
/// prime factor above the cap).
[[nodiscard]] Network make_network_for_width(std::size_t w,
                                             std::size_t max_balancer,
                                             NetworkKind kind,
                                             Runtime& rt = Runtime::shared());

}  // namespace scn
