// The network planner: feasibility, cap enforcement, concurrency-dependent
// choices, candidate ordering, and the engine backend each candidate
// recommends.
#include <gtest/gtest.h>

#include <string>

#include "core/planner.h"
#include "verify/counting_verify.h"

namespace scn {
namespace {

TEST(Planner, ProducesAVerifiedNetwork) {
  PlanRequirements req;
  req.width = 24;
  const auto plan = plan_network(req);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->network.width(), 24u);
  EXPECT_EQ(plan->network.validate(), "");
  EXPECT_TRUE(verify_counting(plan->network).ok);
  EXPECT_FALSE(plan->rationale.empty());
}

TEST(Planner, HonorsBalancerCap) {
  PlanRequirements req;
  req.width = 60;
  req.max_balancer = 5;
  const auto plan = plan_network(req);
  ASSERT_TRUE(plan.has_value());
  EXPECT_LE(plan->network.max_gate_width(), 5u);
  // Only the L construction can reach a cap of max(p_i): the plan must be L.
  EXPECT_EQ(plan->kind, NetworkKind::kL);
}

TEST(Planner, InfeasibleCapReturnsNullopt) {
  PlanRequirements req;
  req.width = 62;  // 2 * 31
  req.max_balancer = 7;
  EXPECT_EQ(plan_network(req), std::nullopt);
}

TEST(Planner, LowConcurrencyPrefersShallow) {
  PlanRequirements req;
  req.width = 64;
  req.concurrency = 1.0;
  const auto plan = plan_network(req);
  ASSERT_TRUE(plan.has_value());
  // With one token there is no contention: the single balancer (depth 1)
  // is unbeatable.
  EXPECT_EQ(plan->network.depth(), 1u);
}

TEST(Planner, HighConcurrencyPrefersNarrow) {
  PlanRequirements req;
  req.width = 64;
  req.concurrency = 512.0;
  req.beta = 64.0;
  const auto plan = plan_network(req);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GT(plan->network.depth(), 1u);
  EXPECT_LE(plan->network.max_gate_width(), 16u);
}

TEST(Planner, CandidatesAreSortedByPredictedLatency) {
  PlanRequirements req;
  req.width = 36;
  const auto plans = plan_candidates(req);
  ASSERT_GT(plans.size(), 3u);
  for (std::size_t i = 0; i + 1 < plans.size(); ++i) {
    EXPECT_LE(plans[i].predicted_latency, plans[i + 1].predicted_latency);
  }
}

TEST(Planner, CandidatesIncludeBothKindsWhenFeasible) {
  PlanRequirements req;
  req.width = 16;
  const auto plans = plan_candidates(req);
  bool saw_k = false, saw_l = false;
  for (const auto& p : plans) {
    saw_k = saw_k || p.kind == NetworkKind::kK;
    saw_l = saw_l || p.kind == NetworkKind::kL;
  }
  EXPECT_TRUE(saw_k);
  EXPECT_TRUE(saw_l);
}

TEST(Planner, RecommendedBackendIsTheStaticDispatchChoice) {
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4096}}) {
    PlanRequirements req;
    req.width = 24;
    req.batch_lanes = lanes;
    const auto plans = plan_candidates(req);
    ASSERT_FALSE(plans.empty());
    for (const Plan& plan : plans) {
      PlanShape shape;
      for (std::size_t gi = 0; gi < plan.network.gate_count(); ++gi) {
        (plan.network.gate_wires(gi).size() == 2 ? shape.pair_gates
                                                 : shape.wide_gates) += 1;
      }
      const EngineBackend expected =
          select_backend(shape, lanes, machine_caps());
      EXPECT_EQ(plan.recommended_backend, expected)
          << plan.rationale << " at B=" << lanes;
      EXPECT_NE(plan.rationale.find(std::string("engine backend ") +
                                    to_string(expected)),
                std::string::npos)
          << plan.rationale;
    }
  }
}

}  // namespace
}  // namespace scn
