// Breadth sweep: EVERY unordered factorization of every width in 8..40,
// for both constructions — structural bounds plus exhaustive 0-1 sorting
// proofs (bit-plane walk) and light counting checks. The widest net here gets
// a full 2^w sorting proof when w <= 20.
#include <gtest/gtest.h>

#include "core/factorization.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "verify/counting_verify.h"
#include "verify/fast_zero_one.h"

namespace scn {
namespace {

class MegaSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MegaSweep, EveryKFamilyMember) {
  const std::size_t w = GetParam();
  for (const auto& factors : all_factorizations(w)) {
    const Network net = make_k_network(factors);
    ASSERT_EQ(net.validate(), "") << format_factors(factors);
    ASSERT_EQ(net.depth(), k_depth_formula(factors.size()))
        << format_factors(factors);
    ASSERT_LE(net.max_gate_width(), max_pair_product(factors))
        << format_factors(factors);
    if (w <= 20) {
      ASSERT_TRUE(fast_verify_sorting_exhaustive(net).ok)
          << format_factors(factors);
    }
    CountingVerifyOptions opts;
    opts.max_total = static_cast<Count>(w + 11);
    opts.random_per_total = 1;
    ASSERT_TRUE(verify_counting(net, opts).ok) << format_factors(factors);
  }
}

TEST_P(MegaSweep, EveryLFamilyMember) {
  const std::size_t w = GetParam();
  for (const auto& factors : all_factorizations(w)) {
    const Network net = make_l_network(factors);
    ASSERT_EQ(net.validate(), "") << format_factors(factors);
    ASSERT_LE(net.depth(), l_depth_bound(factors.size()))
        << format_factors(factors);
    ASSERT_LE(net.max_gate_width(),
              std::max<std::size_t>(2, max_factor(factors)))
        << format_factors(factors);
    if (w <= 18) {
      ASSERT_TRUE(fast_verify_sorting_exhaustive(net).ok)
          << format_factors(factors);
    }
    CountingVerifyOptions opts;
    opts.max_total = static_cast<Count>(w + 11);
    opts.random_per_total = 1;
    ASSERT_TRUE(verify_counting(net, opts).ok) << format_factors(factors);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MegaSweep,
                         ::testing::Values(8u, 9u, 10u, 12u, 14u, 15u, 16u,
                                           18u, 20u, 21u, 24u, 25u, 27u, 28u,
                                           30u, 32u, 35u, 36u, 40u));

}  // namespace
}  // namespace scn
