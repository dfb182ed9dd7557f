// L network (§5.2, Theorem 7): counting correctness, depth within
// 9.5 n^2 - 12.5 n + 3, and — the headline property — every balancer no
// wider than the largest factor.
#include <gtest/gtest.h>

#include "core/factorization.h"
#include "core/l_network.h"
#include "verify/counting_verify.h"
#include "verify/sorting_verify.h"

namespace scn {
namespace {

using Factors = std::vector<std::size_t>;

class LNetworkSuite : public ::testing::TestWithParam<Factors> {};

TEST_P(LNetworkSuite, Validates) {
  const Network net = make_l_network(GetParam());
  EXPECT_EQ(net.validate(), "");
  EXPECT_EQ(net.width(), product(GetParam()));
}

TEST_P(LNetworkSuite, DepthWithinTheorem7Bound) {
  const Factors& factors = GetParam();
  const Network net = make_l_network(factors);
  EXPECT_LE(net.depth(), l_depth_bound(factors.size()))
      << format_factors(factors);
}

TEST_P(LNetworkSuite, BalancersNoWiderThanMaxFactor) {
  const Factors& factors = GetParam();
  const Network net = make_l_network(factors);
  EXPECT_LE(net.max_gate_width(), std::max<std::size_t>(2, max_factor(factors)))
      << format_factors(factors);
}

TEST_P(LNetworkSuite, Counts) {
  const Network net = make_l_network(GetParam());
  CountingVerifyOptions opts;
  opts.random_per_total = 4;
  EXPECT_TRUE(verify_counting(net, opts).ok) << format_factors(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Factorizations, LNetworkSuite,
    ::testing::Values(Factors{2, 2}, Factors{2, 3}, Factors{3, 2},
                      Factors{3, 3}, Factors{2, 2, 2}, Factors{3, 2, 2},
                      Factors{2, 3, 2}, Factors{2, 2, 3}, Factors{3, 3, 2},
                      Factors{4, 3}, Factors{5, 2}, Factors{5, 5},
                      Factors{2, 2, 2, 2}, Factors{3, 2, 3}, Factors{4, 4},
                      Factors{6, 3}, Factors{7, 2}, Factors{3, 4, 2},
                      Factors{2, 3, 4}));

TEST(LNetwork, SortsAllBinaryInputsWidth12) {
  const Network net = make_l_network({2, 3, 2});
  EXPECT_TRUE(verify_sorting_exhaustive(net).ok);
}

TEST(LNetwork, SortsAllBinaryInputsWidth16) {
  const Network net = make_l_network({4, 4});
  EXPECT_TRUE(verify_sorting_exhaustive(net).ok);
}

TEST(LNetwork, ExhaustiveCountingTiny) {
  const Network net = make_l_network({2, 2});
  EXPECT_TRUE(verify_counting_exhaustive(net, 3).ok);
}

TEST(LNetwork, LargeMixedFactorization) {
  // w = 120 = 5 * 4 * 3 * 2: a genuinely "arbitrary width" instance.
  const Factors factors{5, 4, 3, 2};
  const Network net = make_l_network(factors);
  EXPECT_EQ(net.validate(), "");
  EXPECT_EQ(net.width(), 120u);
  EXPECT_LE(net.max_gate_width(), 5u);
  EXPECT_LE(net.depth(), l_depth_bound(4));
  CountingVerifyOptions opts;
  opts.max_total = 400;
  opts.random_per_total = 2;
  EXPECT_TRUE(verify_counting(net, opts).ok);
}

}  // namespace
}  // namespace scn
