// Merger M(p0..pn-1) (§4.2, Props 2-3): merges step inputs, meets the depth
// formula, and Prop 2's staircase claim holds for the intermediate outputs.
#include <gtest/gtest.h>

#include "core/counting_network.h"
#include "core/factorization.h"
#include "core/merger.h"
#include "seq/generators.h"
#include "sim/count_sim.h"
#include "verify/checkers.h"

namespace scn {
namespace {

using Factors = std::vector<std::size_t>;

struct MParam {
  Factors factors;
  StaircaseVariant variant;
};

// Names the instantiation in test IDs; gtest's fallback byte dump would
// print the vector's heap pointers.
void PrintTo(const MParam& m, std::ostream* os) {
  *os << "M(" << format_factors(m.factors) << "," << to_string(m.variant)
      << ")";
}

TEST(MergerParams, PrintedNamesAreReadable) {
  EXPECT_EQ(::testing::PrintToString(
                MParam{Factors{3, 2, 3}, StaircaseVariant::kRebalanceCount}),
            "M(3x2x3,rebalance-count)");
}

std::vector<MParam> shapes() {
  std::vector<MParam> out;
  for (const Factors& f :
       {Factors{2, 2}, Factors{3, 2}, Factors{2, 3}, Factors{2, 2, 2},
        Factors{3, 2, 2}, Factors{2, 3, 2}, Factors{2, 2, 3},
        Factors{2, 2, 2, 2}, Factors{3, 2, 3}, Factors{2, 3, 2, 2}}) {
    out.push_back({f, StaircaseVariant::kRebalanceCount});
    out.push_back({f, StaircaseVariant::kRebalanceBitonic});
    out.push_back({f, StaircaseVariant::kTwoMerger});
  }
  return out;
}

class MergerSuite : public ::testing::TestWithParam<MParam> {};

TEST_P(MergerSuite, Validates) {
  const auto& [factors, variant] = GetParam();
  const Network net =
      make_merger_network(factors, single_balancer_base(), variant);
  EXPECT_EQ(net.validate(), "");
  EXPECT_EQ(net.width(), product(factors));
}

TEST_P(MergerSuite, DepthWithinProposition3) {
  const auto& [factors, variant] = GetParam();
  const Network net =
      make_merger_network(factors, single_balancer_base(), variant);
  // d = 1 (single-balancer base); the largest r any internal S sees is
  // bounded by w, so use the worst-case staircase depth for the variant.
  const std::size_t s = staircase_depth_formula(variant, 1, 3 /* odd r */);
  EXPECT_LE(net.depth(), m_depth_formula(factors.size(), 1, s))
      << format_factors(factors) << " " << to_string(variant);
}

TEST_P(MergerSuite, MergesRandomStepInputs) {
  const auto& [factors, variant] = GetParam();
  const Network net =
      make_merger_network(factors, single_balancer_base(), variant);
  const std::size_t m = factors.back();
  const std::size_t len = product(factors) / m;
  std::mt19937_64 rng(7);
  for (int t = 0; t < 200; ++t) {
    std::vector<Count> in;
    for (std::size_t i = 0; i < m; ++i) {
      const auto x =
          random_step_sequence(rng, len, static_cast<Count>(3 * len));
      in.insert(in.end(), x.begin(), x.end());
    }
    const auto out = output_counts(net, in);
    ASSERT_TRUE(is_exact_step_output(out))
        << format_factors(factors) << " in " << format_sequence(in);
  }
}

TEST_P(MergerSuite, MergesExtremeTotalCombinations) {
  const auto& [factors, variant] = GetParam();
  const Network net =
      make_merger_network(factors, single_balancer_base(), variant);
  const std::size_t m = factors.back();
  const std::size_t len = product(factors) / m;
  // All-zero, all-full, one-full-rest-empty, staggered.
  std::vector<std::vector<Count>> totals_list;
  totals_list.push_back(std::vector<Count>(m, 0));
  totals_list.push_back(std::vector<Count>(m, static_cast<Count>(len)));
  {
    std::vector<Count> v(m, 0);
    v[0] = static_cast<Count>(2 * len);
    totals_list.push_back(v);
    std::vector<Count> u(m, static_cast<Count>(2 * len));
    u[m - 1] = 0;
    totals_list.push_back(u);
  }
  {
    std::vector<Count> v(m);
    for (std::size_t i = 0; i < m; ++i) {
      v[i] = static_cast<Count>(i * len / 2 + 1);
    }
    totals_list.push_back(v);
  }
  for (const auto& totals : totals_list) {
    std::vector<Count> in;
    for (const Count t : totals) {
      const auto x = step_sequence(len, t);
      in.insert(in.end(), x.begin(), x.end());
    }
    const auto out = output_counts(net, in);
    ASSERT_TRUE(is_exact_step_output(out)) << format_sequence(in);
  }
}

INSTANTIATE_TEST_SUITE_P(ShapesTimesVariants, MergerSuite,
                         ::testing::ValuesIn(shapes()));

TEST(Merger, Proposition2StaircaseClaim) {
  // Directly verify Prop 2: if each X_j is step, then the per-copy sums
  // Y_i = sum_j sum(X_j[i, p(n-2)]) satisfy the p(n-1)-staircase property.
  std::mt19937_64 rng(13);
  const std::size_t p_n2 = 3;   // stride / number of copies
  const std::size_t p_n1 = 4;   // number of input sequences
  const std::size_t len = 12;   // |X_j|, divisible by p_n2
  for (int t = 0; t < 300; ++t) {
    std::vector<std::vector<Count>> xs;
    for (std::size_t j = 0; j < p_n1; ++j) {
      xs.push_back(random_step_sequence(rng, len, 40));
    }
    std::vector<std::vector<Count>> ys(p_n2);
    for (std::size_t i = 0; i < p_n2; ++i) {
      Count sum = 0;
      for (std::size_t j = 0; j < p_n1; ++j) {
        for (const Count v : stride_subsequence(xs[j], i, p_n2)) sum += v;
      }
      ys[i] = {sum};  // staircase property depends only on sums
    }
    EXPECT_TRUE(has_staircase_property(ys, static_cast<Count>(p_n1)));
  }
}

TEST(Merger, MeasuredDepthMatchesProposition3ForK) {
  // With the K instantiation (d = 1, s = 3) Prop 3 gives exact depths:
  // n = 2 -> 1, n = 3 -> 4, n = 4 -> 7.
  const auto base = single_balancer_base();
  const auto v = StaircaseVariant::kRebalanceCount;
  EXPECT_EQ(make_merger_network(Factors{2, 2}, base, v).depth(), 1u);
  EXPECT_EQ(make_merger_network(Factors{2, 2, 2}, base, v).depth(), 4u);
  EXPECT_EQ(make_merger_network(Factors{2, 2, 2, 2}, base, v).depth(), 7u);
  EXPECT_EQ(make_merger_network(Factors{3, 2, 4, 2}, base, v).depth(), 7u);
}

}  // namespace
}  // namespace scn
