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
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>

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

// ---------------------------------------------------------------------------
// Engine backend selection (the execution-side half of the cost model).
//
// A compiled ExecutionPlan can run on any registered engine backend
// (engine/backend.h); which one pays off is a cost question — plan shape x
// batch size x machine capabilities — so the policy lives here, next to the
// structural cost functions, and the engine layer consumes it.

/// The registered execution backends. kAuto is a *request*, resolved by
/// select_backend() against the plan shape and machine caps at dispatch
/// time; the other three name concrete implementations.
enum class EngineBackend : std::uint8_t {
  kAuto = 0,
  kScalar,    ///< one lane at a time, each walked alone (the reference)
  kBatch,     ///< SoA batch, cache-blocked, auto-vectorized lane loops
  kThreaded,  ///< SoA batch sharded over the runtime's ThreadPool
};

[[nodiscard]] const char* to_string(EngineBackend backend);

/// Parses "auto" / "scalar" / "batch" / "threaded" (the CLI's
/// --engine= values and the SCNET_BACKEND variable); nullopt on anything
/// else.
[[nodiscard]] std::optional<EngineBackend> parse_backend(
    std::string_view name);

/// The process-default backend request: SCNET_BACKEND when set to a valid
/// name, else kAuto. Read per call — Runtime captures it at construction.
[[nodiscard]] EngineBackend default_backend();

/// The shape facts select_backend() scores a compiled plan by. The engine
/// layer extracts this from an ExecutionPlan (engine::plan_shape); keeping
/// the struct here lets the policy stay free of engine headers.
struct PlanShape {
  std::size_t pair_gates = 0;  ///< width-2 gates across all layers
  std::size_t wide_gates = 0;  ///< gates wider than 2
};

/// What the host offers the backends.
struct MachineCaps {
  std::size_t threads = 1;  ///< worker threads a pool would get
};

/// Capabilities of this host: threads is default_thread_count().
[[nodiscard]] MachineCaps machine_caps();

/// Thresholds of the dispatch policy (exposed for tests and docs).
inline constexpr std::size_t kThreadedMinLanes = 256;
inline constexpr std::size_t kThreadedMinWork = 1u << 18;  ///< lanes x gates

/// Picks the backend for running `lanes` independent input vectors through
/// a plan of the given shape:
///   * a single lane has no batch dimension to vectorize or shard over —
///     scalar;
///   * enough total work (lanes x gates >= kThreadedMinWork) over enough
///     lanes on a multi-core host amortizes pool dispatch — threaded;
///   * otherwise the auto-vectorized batch tier.
[[nodiscard]] EngineBackend select_backend(const PlanShape& shape,
                                           std::size_t lanes,
                                           const MachineCaps& caps);

}  // namespace scn
