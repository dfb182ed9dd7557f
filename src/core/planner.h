// Network planning: "I need width w under these constraints — which
// construction and factorization should I use?"
//
// Pulls together the family enumeration, the depth formulas and the
// contention model into one decision: candidates are K and L members over
// all factorizations of w (bounded), scored by predicted latency at the
// caller's concurrency under the alpha-beta contention model, subject to a
// hard balancer-width cap.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/family.h"
#include "net/network.h"

namespace scn {

struct PlanRequirements {
  std::size_t width = 0;               ///< required network width (>= 2)
  std::size_t max_balancer = SIZE_MAX; ///< hard cap on gate width
  double concurrency = 8.0;            ///< expected concurrent tokens
  double alpha = 1.0;                  ///< per-hop cost
  double beta = 16.0;                  ///< serialization cost per contender
  std::size_t max_candidates = 64;     ///< factorization enumeration cap
  /// Expected vectors per engine dispatch: drives the recommended engine
  /// backend the same way lane count drives select_backend() at run time
  /// (1 = single-vector use, recommends scalar).
  std::size_t batch_lanes = 1;
};

struct Plan {
  NetworkKind kind = NetworkKind::kK;
  std::vector<std::size_t> factors;
  Network network;
  double predicted_latency = 0.0;
  /// select_backend() applied to this candidate's gate-shape at
  /// req.batch_lanes under this build's machine_caps() — what `auto`
  /// dispatch would pick for the same workload.
  EngineBackend recommended_backend = EngineBackend::kScalar;
  std::string rationale;  ///< human-readable summary of the choice
};

/// Returns the best feasible plan, or nullopt when no factorization of
/// `width` satisfies the balancer cap (e.g. prime width under a small cap).
[[nodiscard]] std::optional<Plan> plan_network(const PlanRequirements& req);

/// All scored feasible candidates, best first (for explorers/UIs).
[[nodiscard]] std::vector<Plan> plan_candidates(const PlanRequirements& req);

}  // namespace scn
