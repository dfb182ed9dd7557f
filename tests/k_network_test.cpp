// K network (§5.1): counting correctness, exact depth formula (Prop 6),
// balancer width bound max(p_i p_j), and sortingness via the 0-1 principle.
#include <gtest/gtest.h>

#include "core/factorization.h"
#include "core/k_network.h"
#include "verify/counting_verify.h"
#include "verify/sorting_verify.h"

namespace scn {
namespace {

using Factors = std::vector<std::size_t>;

class KNetworkCounts : public ::testing::TestWithParam<Factors> {};

TEST_P(KNetworkCounts, ValidatesStructurally) {
  const Network net = make_k_network(GetParam());
  EXPECT_EQ(net.validate(), "");
  EXPECT_EQ(net.width(), product(GetParam()));
}

TEST_P(KNetworkCounts, DepthMatchesProposition6Exactly) {
  const Factors& factors = GetParam();
  const Network net = make_k_network(factors);
  EXPECT_EQ(net.depth(), k_depth_formula(factors.size()))
      << "factors " << format_factors(factors);
}

TEST_P(KNetworkCounts, BalancerWidthWithinMaxPairProduct) {
  const Factors& factors = GetParam();
  const Network net = make_k_network(factors);
  EXPECT_LE(net.max_gate_width(), max_pair_product(factors));
}

TEST_P(KNetworkCounts, CountsToStepOnStructuredAndRandomLoads) {
  const Network net = make_k_network(GetParam());
  const CountingVerdict v = verify_counting(net);
  EXPECT_TRUE(v.ok) << "input: " << format_factors(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Factorizations, KNetworkCounts,
    ::testing::Values(Factors{2, 2}, Factors{2, 3}, Factors{3, 2},
                      Factors{2, 2, 2}, Factors{2, 3, 2}, Factors{3, 3, 3},
                      Factors{2, 2, 3}, Factors{5, 2}, Factors{2, 2, 2, 2},
                      Factors{3, 2, 2, 3}, Factors{4, 3, 2}, Factors{5, 3},
                      Factors{2, 5, 2}, Factors{6, 2, 2}, Factors{7, 2},
                      Factors{4, 4}, Factors{2, 2, 2, 2, 2}, Factors{3, 3},
                      Factors{2, 3, 4}));

TEST(KNetwork, SingleFactorIsOneBalancer) {
  const Network net = make_k_network({6});
  EXPECT_EQ(net.depth(), 1u);
  EXPECT_EQ(net.gate_count(), 1u);
  EXPECT_TRUE(verify_counting(net).ok);
}

TEST(KNetwork, SortsAllBinaryInputsWidth12) {
  const Network net = make_k_network({2, 3, 2});
  const SortingVerdict v = verify_sorting_exhaustive(net);
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.inputs_checked, std::uint64_t{1} << 12);
}

TEST(KNetwork, SortsAllBinaryInputsWidth16) {
  const Network net = make_k_network({2, 2, 2, 2});
  EXPECT_TRUE(verify_sorting_exhaustive(net).ok);
}

TEST(KNetwork, ExhaustiveCountingTinyWidths) {
  for (const Factors& f : {Factors{2, 2}, Factors{2, 3}, Factors{3, 2}}) {
    const Network net = make_k_network(f);
    const CountingVerdict v = verify_counting_exhaustive(net, 3);
    EXPECT_TRUE(v.ok) << format_factors(f);
  }
}

}  // namespace
}  // namespace scn
