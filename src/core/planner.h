// Network planning: "I need width w under these constraints — which
// construction and factorization should I use?"
//
// Pulls together the family enumeration, the depth formulas and the
// contention model into one decision: candidates are K and L members over
// all factorizations of w (bounded), scored by predicted latency at the
// caller's concurrency under the alpha-beta contention model, subject to a
// hard balancer-width cap.
//
// When the caller supplies a MachineProfile (tune/profile.h — produced by
// `scnet_cli tune`), measured throughput overrides the analytical score:
// candidates the profile has cells for are ranked by measured vectors/sec
// and carry the measured backend; candidates without measurements keep the
// static scoring and rank below measured ones. Every Plan records which
// path chose it (`from_profile`), and the rationale spells it out.
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
  /// Measured machine profile; when non-null and matching this host's
  /// MachineCaps fingerprint, measured cells override the static scoring
  /// (see the header comment). Not owned; may be null.
  const tune::MachineProfile* profile = nullptr;
};

struct Plan {
  NetworkKind kind = NetworkKind::kK;
  std::vector<std::size_t> factors;
  Network network;
  double predicted_latency = 0.0;
  /// select_backend() applied to this candidate's gate-shape at
  /// req.batch_lanes under this build's machine_caps() — what `auto`
  /// dispatch would pick for the same workload — unless the profile had a
  /// measured cell, in which case this is the measured-fastest backend.
  EngineBackend recommended_backend = EngineBackend::kScalar;
  /// Provenance: true when a matching profile cell chose the backend (and
  /// measured_vps holds its throughput); false for the static cost model.
  bool from_profile = false;
  /// Measured vectors/sec of the profile cell that scored this candidate
  /// (0 when from_profile is false).
  double measured_vps = 0.0;
  std::string rationale;  ///< human-readable summary of the choice
};

/// Returns the best feasible plan, or nullopt when no factorization of
/// `width` satisfies the balancer cap (e.g. prime width under a small cap).
[[nodiscard]] std::optional<Plan> plan_network(const PlanRequirements& req);

/// All scored feasible candidates, best first (for explorers/UIs).
[[nodiscard]] std::vector<Plan> plan_candidates(const PlanRequirements& req);

}  // namespace scn
