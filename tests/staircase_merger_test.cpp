// Staircase-merger S(r, p, q) (§4.3, §4.3.1, Prop 4): all four variants
// merge any family of step inputs satisfying the p-staircase property.
#include <gtest/gtest.h>

#include "core/counting_network.h"
#include "core/staircase_merger.h"
#include "seq/generators.h"
#include "sim/count_sim.h"
#include "verify/checkers.h"

namespace scn {
namespace {

constexpr StaircaseVariant kVariants[] = {
    StaircaseVariant::kTwoMerger, StaircaseVariant::kTwoMergerCapped,
    StaircaseVariant::kRebalanceCount, StaircaseVariant::kRebalanceBitonic};

struct SParam {
  std::size_t r, p, q;
  StaircaseVariant variant;
};

// Names the instantiation in test IDs; gtest's fallback byte dump would
// include the struct's uninitialized padding.
void PrintTo(const SParam& s, std::ostream* os) {
  *os << "S(" << s.r << "," << s.p << "," << s.q << ","
      << to_string(s.variant) << ")";
}

TEST(StaircaseParams, PrintedNamesAreReadable) {
  EXPECT_EQ(::testing::PrintToString(
                SParam{3, 3, 2, StaircaseVariant::kTwoMergerCapped}),
            "S(3,3,2,two-merger-capped)");
}

std::vector<SParam> all_shapes() {
  std::vector<SParam> out;
  for (const auto& [r, p, q] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{2, 2, 2},
        {3, 2, 2},
        {2, 3, 2},
        {2, 2, 3},
        {3, 3, 2},
        {4, 2, 2},
        {5, 2, 2},
        {3, 2, 3},
        {2, 3, 3},
        {4, 3, 2},
        {6, 2, 2},
        {3, 4, 2}}) {
    for (const StaircaseVariant v : kVariants) out.push_back({r, p, q, v});
  }
  return out;
}

class StaircaseSuite : public ::testing::TestWithParam<SParam> {};

TEST_P(StaircaseSuite, ValidatesAndMeetsDepthFormula) {
  const auto [r, p, q, variant] = GetParam();
  const Network net =
      make_staircase_merger_network(r, p, q, single_balancer_base(), variant);
  EXPECT_EQ(net.validate(), "");
  EXPECT_EQ(net.width(), r * p * q);
  EXPECT_LE(net.depth(), staircase_depth_formula(variant, 1, r));
}

TEST_P(StaircaseSuite, MergesRandomStaircaseFamilies) {
  const auto [r, p, q, variant] = GetParam();
  const Network net =
      make_staircase_merger_network(r, p, q, single_balancer_base(), variant);
  std::mt19937_64 rng(31 + r * 100 + p * 10 + q);
  for (int t = 0; t < 150; ++t) {
    const auto family = random_staircase_family(
        rng, q, r * p, static_cast<Count>(p), static_cast<Count>(4 * r * p));
    std::vector<Count> in;
    for (const auto& x : family) in.insert(in.end(), x.begin(), x.end());
    const auto out = output_counts(net, in);
    ASSERT_TRUE(is_exact_step_output(out))
        << "in " << format_sequence(in) << " -> " << format_sequence(out);
  }
}

TEST_P(StaircaseSuite, MergesStaircaseCornerTotals) {
  // Deterministic totals hitting every residue and discrepancy placement,
  // including the wrap case the Prop 4 proof treats separately: base totals
  // sweeping the full range, deltas at the staircase extremes (0 and p).
  const auto [r, p, q, variant] = GetParam();
  const Network net =
      make_staircase_merger_network(r, p, q, single_balancer_base(), variant);
  const std::size_t len = r * p;
  for (Count base = 0; base <= static_cast<Count>(2 * len); ++base) {
    for (const Count delta : {Count{0}, Count{1}, static_cast<Count>(p)}) {
      // Front-loaded deltas (first sequences get the excess).
      std::vector<Count> in;
      for (std::size_t i = 0; i < q; ++i) {
        const Count total = base + (i == 0 ? delta : 0);
        const auto x = step_sequence(len, total);
        in.insert(in.end(), x.begin(), x.end());
      }
      const auto out = output_counts(net, in);
      ASSERT_TRUE(is_exact_step_output(out))
          << "base " << base << " delta " << delta << " -> "
          << format_sequence(out);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShapesTimesVariants, StaircaseSuite,
                         ::testing::ValuesIn(all_shapes()));

TEST(StaircaseMerger, VariantDepthOrdering) {
  // With d = 1: rebalance-count = 3 < rebalance-bitonic = 4 <= naive <= 6|9.
  const auto base = single_balancer_base();
  const Network rc = make_staircase_merger_network(
      4, 3, 3, base, StaircaseVariant::kRebalanceCount);
  const Network rb = make_staircase_merger_network(
      4, 3, 3, base, StaircaseVariant::kRebalanceBitonic);
  const Network tm = make_staircase_merger_network(
      4, 3, 3, base, StaircaseVariant::kTwoMerger);
  const Network tc = make_staircase_merger_network(
      4, 3, 3, base, StaircaseVariant::kTwoMergerCapped);
  EXPECT_EQ(rc.depth(), 3u);
  EXPECT_EQ(rb.depth(), 4u);
  EXPECT_LE(tm.depth(), 6u);
  EXPECT_LE(tc.depth(), 9u);
}

TEST(StaircaseMerger, CappedVariantBoundsBalancerWidth) {
  // kTwoMergerCapped must not exceed max(p, q, 2) with a single-balancer
  // base of width p*q... the cap claim concerns the T-internal balancers:
  // (2q)-balancers are replaced by width <= max(2, q) gates. The base
  // C(p, q) balancer itself (width pq) is exempt — it is the "given"
  // network. Check the T-layer gates only, via a 2-gate-width histogram.
  const Network capped = make_staircase_merger_network(
      3, 4, 3, single_balancer_base(), StaircaseVariant::kTwoMergerCapped);
  const Network plain = make_staircase_merger_network(
      3, 4, 3, single_balancer_base(), StaircaseVariant::kTwoMerger);
  // Plain uses 2q = 6-wide row balancers; capped must not (only 12 = pq
  // base balancers, plus widths <= max(p, q) = 4 and 2).
  const auto hist_capped = capped.gate_width_histogram();
  const auto hist_plain = plain.gate_width_histogram();
  EXPECT_GT(hist_plain[2 * 3], 0u);   // plain has 6-wide rows
  EXPECT_EQ(hist_capped[2 * 3], 0u);  // capped eliminated them
  for (std::size_t wdt = 5; wdt < hist_capped.size(); ++wdt) {
    if (wdt == 12) continue;  // base C(p, q) balancers
    EXPECT_EQ(hist_capped[wdt], 0u) << "width " << wdt;
  }
}

TEST(StaircaseMerger, WrapDiscrepancyCase) {
  // Force the discrepancy across the wrap (A_{r-1}, A_0): totals just below
  // a full level make the step point land at the matrix bottom.
  const auto base = single_balancer_base();
  for (const StaircaseVariant v : kVariants) {
    const Network net = make_staircase_merger_network(3, 2, 2, base, v);
    const std::size_t len = 6;  // r*p
    for (Count t = 0; t <= 12; ++t) {
      // Column totals (t + 2, t): spread = p = 2 exercises extremes.
      std::vector<Count> in;
      const auto x0 = step_sequence(len, t + 2);
      const auto x1 = step_sequence(len, t);
      in.insert(in.end(), x0.begin(), x0.end());
      in.insert(in.end(), x1.begin(), x1.end());
      const auto out = output_counts(net, in);
      ASSERT_TRUE(is_exact_step_output(out))
          << to_string(v) << " t=" << t << " -> " << format_sequence(out);
    }
  }
}

}  // namespace
}  // namespace scn
