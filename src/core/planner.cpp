#include "core/planner.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "core/factorization.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "opt/optimal_lib.h"
#include "perf/contention_model.h"

namespace scn {

std::vector<Plan> plan_candidates(const PlanRequirements& req) {
  assert(req.width >= 2);
  // Candidate enumeration builds every K/L member it scores. Those builds
  // route through the module cache (core/module.h): distinct factorizations
  // miss once each, but the shared sub-modules (R(p, q), S, T, D) intern
  // across candidates, so a planner sweep is mostly stamping.
  std::vector<Plan> plans;
  const auto factorizations =
      all_factorizations(req.width, 2, req.max_candidates);
  for (const auto& factors : factorizations) {
    for (const NetworkKind kind : {NetworkKind::kK, NetworkKind::kL}) {
      const std::size_t bound = kind == NetworkKind::kK
                                    ? max_pair_product(factors)
                                    : std::max<std::size_t>(
                                          2, max_factor(factors));
      if (bound > req.max_balancer) continue;
      Plan plan;
      plan.kind = kind;
      plan.factors = factors;
      plan.network = kind == NetworkKind::kK ? make_k_network(factors)
                                             : make_l_network(factors);
      const ContentionEstimate est = estimate_contention(plan.network);
      plan.predicted_latency =
          est.predicted_latency(req.concurrency, req.alpha, req.beta);
      PlanShape shape;
      for (std::size_t gi = 0; gi < plan.network.gate_count(); ++gi) {
        (plan.network.gate_wires(gi).size() == 2 ? shape.pair_gates
                                                 : shape.wide_gates) += 1;
      }
      plan.recommended_backend =
          select_backend(shape, req.batch_lanes, machine_caps());
      std::ostringstream why;
      why << to_string(kind) << "(" << format_factors(factors) << "): depth "
          << plan.network.depth() << ", max balancer "
          << plan.network.max_gate_width() << ", predicted latency "
          << plan.predicted_latency << " at T=" << req.concurrency
          << ", engine backend " << to_string(plan.recommended_backend)
          << " at B=" << req.batch_lanes;
      // Comparator-path consumers can do better than any construction at
      // widths the optimality map covers: point them at the opt-in level.
      if (const OptimalEntry* opt = optimal_sorter_entry(req.width);
          opt != nullptr && opt->depth < plan.network.depth()) {
        why << "; sorting-only: depth " << opt->depth
            << " reachable via --passes=optimal (docs/optimal_networks.md)";
      }
      plan.rationale = why.str();
      plans.push_back(std::move(plan));
    }
  }
  std::sort(plans.begin(), plans.end(), [](const Plan& a, const Plan& b) {
    if (a.predicted_latency != b.predicted_latency) {
      return a.predicted_latency < b.predicted_latency;
    }
    // Tie-break: shallower first (depth is the latency the contention
    // model cannot see at T ~ 1), then fewer gates, then narrower
    // balancers.
    if (a.network.depth() != b.network.depth()) {
      return a.network.depth() < b.network.depth();
    }
    if (a.network.gate_count() != b.network.gate_count()) {
      return a.network.gate_count() < b.network.gate_count();
    }
    return a.network.max_gate_width() < b.network.max_gate_width();
  });
  return plans;
}

std::optional<Plan> plan_network(const PlanRequirements& req) {
  auto plans = plan_candidates(req);
  if (plans.empty()) return std::nullopt;
  return std::move(plans.front());
}

}  // namespace scn
