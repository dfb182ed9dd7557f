// Analytical contention model: traffic conservation, agreement with the
// token simulator's empirical hop counts, and the family trade-off.
#include <gtest/gtest.h>

#include "core/k_network.h"
#include "perf/contention_model.h"
#include "sim/token_sim.h"

namespace scn {
namespace {

TEST(GateTraffic, SingleBalancerSeesEverything) {
  NetworkBuilder b(4);
  b.add_balancer({0, 1, 2, 3});
  const Network net = std::move(b).finish_identity();
  const auto traffic = gate_traffic(net);
  ASSERT_EQ(traffic.size(), 1u);
  EXPECT_DOUBLE_EQ(traffic[0].fraction, 1.0);
}

TEST(GateTraffic, LayerOfDisjointGatesSplitsEvenly) {
  NetworkBuilder b(4);
  b.add_balancer({0, 1});
  b.add_balancer({2, 3});
  const Network net = std::move(b).finish_identity();
  const auto traffic = gate_traffic(net);
  ASSERT_EQ(traffic.size(), 2u);
  EXPECT_DOUBLE_EQ(traffic[0].fraction, 0.5);
  EXPECT_DOUBLE_EQ(traffic[1].fraction, 0.5);
}

TEST(GateTraffic, PerLayerTrafficSumsToOneInFullLayers) {
  // In K(2^n), every layer covers all wires, so the per-layer fractions
  // sum to 1 and hops_per_token == depth.
  const Network net = make_k_network({2, 2, 2, 2});
  const ContentionEstimate est = estimate_contention(net);
  EXPECT_NEAR(est.hops_per_token, static_cast<double>(net.depth()), 1e-9);
}

TEST(ContentionEstimate, MatchesEmpiricalHops) {
  // Empirical mean hops (uniform random inputs via a balanced load) must
  // match the analytical expectation.
  for (const auto& factors :
       {std::vector<std::size_t>{4, 4}, {2, 3, 2}, {2, 2, 2}}) {
    const Network net = make_k_network(factors);
    const ContentionEstimate est = estimate_contention(net);
    std::vector<Count> in(net.width(), 64);  // uniform load
    const auto sim =
        run_token_simulation(net, in, SchedulePolicy::kOneTokenAtATime);
    const double empirical =
        static_cast<double>(sim.hops) /
        static_cast<double>(64 * net.width());
    EXPECT_NEAR(est.hops_per_token, empirical, 1e-9);
  }
}

TEST(ContentionEstimate, HottestGateDropsWithDepthInFamily) {
  // Family trade-off: the single balancer of K(64) carries 100% of the
  // traffic; K(2^6)'s widest gates (4-balancers, from the C(2,2) bases)
  // carry 4/64 = 1/16 each.
  const Network wide = make_k_network({64});
  const Network narrow = make_k_network({2, 2, 2, 2, 2, 2});
  const auto ew = estimate_contention(wide);
  const auto en = estimate_contention(narrow);
  EXPECT_DOUBLE_EQ(ew.hottest_gate_fraction, 1.0);
  EXPECT_NEAR(en.hottest_gate_fraction, 1.0 / 16.0, 1e-9);
  EXPECT_LT(ew.hops_per_token, en.hops_per_token);
}

}  // namespace
}  // namespace scn
