// Two-merger T(p, q0, q1) (§4.4, Prop 5): merges any two step sequences,
// depth 2 (3 capped), structure and degenerate handling.
#include <gtest/gtest.h>

#include "core/two_merger.h"
#include "seq/generators.h"
#include "sim/count_sim.h"
#include "verify/checkers.h"

namespace scn {
namespace {

/// Feeds step sequences with totals (t0, t1) into the standalone T network
/// and checks the output is THE step sequence.
void check_merge(const Network& net, std::size_t len0, Count t0, Count t1) {
  std::vector<Count> in;
  const auto x0 = step_sequence(len0, t0);
  const auto x1 = step_sequence(net.width() - len0, t1);
  in.insert(in.end(), x0.begin(), x0.end());
  in.insert(in.end(), x1.begin(), x1.end());
  const auto out = output_counts(net, in);
  ASSERT_TRUE(is_exact_step_output(out))
      << "t0=" << t0 << " t1=" << t1 << " -> " << format_sequence(out);
}

struct TParam {
  std::size_t p, q0, q1;
  bool capped;
};

// Names the instantiation in test IDs; gtest's fallback byte dump would
// include the struct's uninitialized padding.
void PrintTo(const TParam& t, std::ostream* os) {
  *os << "T(" << t.p << "," << t.q0 << "," << t.q1
      << (t.capped ? ",capped)" : ")");
}

class TwoMergerSuite : public ::testing::TestWithParam<TParam> {};

TEST(TwoMergerParams, PrintedNamesAreReadable) {
  EXPECT_EQ(::testing::PrintToString(TParam{3, 2, 1, false}), "T(3,2,1)");
  EXPECT_EQ(::testing::PrintToString(TParam{2, 2, 2, true}),
            "T(2,2,2,capped)");
}

TEST_P(TwoMergerSuite, Validates) {
  const auto [p, q0, q1, capped] = GetParam();
  const Network net = make_two_merger_network(p, q0, q1, capped);
  EXPECT_EQ(net.validate(), "");
  EXPECT_EQ(net.width(), p * (q0 + q1));
}

TEST_P(TwoMergerSuite, DepthAtMostTwoOrThree) {
  const auto [p, q0, q1, capped] = GetParam();
  const Network net = make_two_merger_network(p, q0, q1, capped);
  EXPECT_LE(net.depth(), capped ? 3u : 2u);
}

TEST_P(TwoMergerSuite, MergesAllStepPairsExhaustively) {
  const auto [p, q0, q1, capped] = GetParam();
  const Network net = make_two_merger_network(p, q0, q1, capped);
  const std::size_t len0 = p * q0;
  const std::size_t len1 = p * q1;
  for (Count t0 = 0; t0 <= static_cast<Count>(2 * len0 + 2); ++t0) {
    for (Count t1 = 0; t1 <= static_cast<Count>(2 * len1 + 2); ++t1) {
      check_merge(net, len0, t0, t1);
    }
  }
}

TEST_P(TwoMergerSuite, CappedVariantKeepsBalancersWithinMaxPQ) {
  const auto [p, q0, q1, capped] = GetParam();
  if (!capped) GTEST_SKIP() << "cap applies to the capped variant";
  const Network net = make_two_merger_network(p, q0, q1, capped);
  EXPECT_LE(net.max_gate_width(), std::max({p, q0, q1, std::size_t{2}}));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TwoMergerSuite,
    ::testing::Values(TParam{2, 1, 1, false}, TParam{2, 2, 2, false},
                      TParam{3, 2, 2, false}, TParam{2, 3, 1, false},
                      TParam{4, 1, 2, false}, TParam{3, 1, 3, false},
                      TParam{5, 2, 1, false}, TParam{2, 2, 2, true},
                      TParam{3, 2, 2, true}, TParam{4, 3, 3, true},
                      TParam{2, 4, 4, true}, TParam{5, 2, 2, true}));

TEST(TwoMerger, UnbalancedTotalsFarApart) {
  // The merger must average even when one side holds vastly more tokens
  // (step inputs need not be 1-smooth relative to each other).
  const Network net = make_two_merger_network(3, 2, 2);
  check_merge(net, 6, 600, 0);
  check_merge(net, 6, 0, 600);
  check_merge(net, 6, 601, 7);
}

TEST(TwoMerger, POneDegradesToSingleRowBalancer) {
  const Network net = make_two_merger_network(1, 3, 2);
  EXPECT_EQ(net.depth(), 1u);
  EXPECT_EQ(net.gate_count(), 1u);
  EXPECT_EQ(net.max_gate_width(), 5u);
  check_merge(net, 3, 4, 2);
}

TEST(TwoMerger, EmptySideReturnsOtherUnchanged) {
  NetworkBuilder b(4);
  const std::vector<Wire> x0 = {0, 1, 2, 3};
  const std::vector<Wire> x1;
  const auto out = build_two_merger(b, x0, x1, 2);
  EXPECT_EQ(out, x0);
  EXPECT_EQ(b.gate_count(), 0u);
  const auto out2 = build_two_merger(b, x1, x0, 2);
  EXPECT_EQ(out2, x0);
}

TEST(TwoMerger, RandomStepPairsLargeShapes) {
  std::mt19937_64 rng(17);
  const Network net = make_two_merger_network(6, 4, 3);
  for (int t = 0; t < 300; ++t) {
    std::uniform_int_distribution<Count> dist(0, 200);
    check_merge(net, 24, dist(rng), dist(rng));
  }
}

TEST(TwoMerger, OutputIsPermutationOfInputWires) {
  NetworkBuilder b(12);
  const std::vector<Wire> x0 = {0, 1, 2, 3, 4, 5};
  const std::vector<Wire> x1 = {6, 7, 8, 9, 10, 11};
  auto out = build_two_merger(b, x0, x1, 3);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, identity_order(12));
}

}  // namespace
}  // namespace scn
