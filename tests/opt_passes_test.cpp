// Pass-pipeline soundness: each pass (and each shipped pipeline level) must
// preserve comparator behavior exactly — proven exhaustively over all 2^w
// 0-1 inputs at small widths (the 0-1 principle lifts that to all inputs)
// — and, for the semantics-free passes, quiescent counting behavior too.
// Larger widths get randomized cross-engine agreement: per-gate interpreter
// on the original network vs compiled plan on the optimized one.
#include <gtest/gtest.h>

#include <random>

#include "baseline/batcher.h"
#include "baseline/bitonic.h"
#include "baseline/bubble.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "engine/batch_engine.h"
#include "net/serialize.h"
#include "net/transform.h"
#include "opt/pass.h"
#include "opt/passes.h"
#include "opt/plan_cache.h"
#include "seq/generators.h"
#include "sim/comparator_sim.h"
#include "sim/count_sim.h"

namespace scn {
namespace {

/// Exhaustive 0-1 equivalence of two same-width comparator networks. By
/// the 0-1 principle, agreement on all 2^w binary inputs proves agreement
/// on all inputs.
void expect_zero_one_equivalent(const Network& a, const Network& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_LE(a.width(), 12u);
  const std::size_t w = a.width();
  for (std::uint64_t x = 0; x < (std::uint64_t{1} << w); ++x) {
    std::vector<Count> in(w);
    for (std::size_t i = 0; i < w; ++i) {
      in[i] = static_cast<Count>((x >> i) & 1u);
    }
    ASSERT_EQ(comparator_output_counts(a, in),
              comparator_output_counts(b, in))
        << "0-1 input " << x;
  }
}

/// Quiescent-count equivalence over structured + random count vectors.
void expect_counting_equivalent(const Network& a, const Network& b) {
  ASSERT_EQ(a.width(), b.width());
  std::mt19937_64 rng(11);
  for (Count total = 0; total <= static_cast<Count>(3 * a.width() + 5);
       ++total) {
    for (const auto& in : structured_count_vectors(a.width(), total)) {
      ASSERT_EQ(output_counts(a, in), output_counts(b, in));
    }
    for (int t = 0; t < 4; ++t) {
      const auto in = random_count_vector(rng, a.width(), total);
      ASSERT_EQ(output_counts(a, in), output_counts(b, in));
    }
  }
}

TEST(RelayerPass, PreservesBothSemanticsAndIsIdempotent) {
  const Network net = make_l_network({2, 3});
  const auto pass = make_relayer_pass();
  const PassOptions opts;
  ASSERT_TRUE(pass->applicable(net, opts));
  const Network once = pass->run(net, opts);
  EXPECT_TRUE(once.validate().empty());
  EXPECT_EQ(once.gate_count(), net.gate_count());
  EXPECT_EQ(once.depth(), net.depth());
  expect_zero_one_equivalent(net, once);
  expect_counting_equivalent(net, once);
  const Network twice = pass->run(once, opts);
  EXPECT_EQ(serialize_network(once), serialize_network(twice));
}

TEST(RelayerPass, CanonicalizesIndependentGateOrder) {
  NetworkBuilder a(6);
  a.add_balancer({4, 5});
  a.add_balancer({0, 1});
  a.add_balancer({2, 3});
  NetworkBuilder b(6);
  b.add_balancer({0, 1});
  b.add_balancer({2, 3});
  b.add_balancer({4, 5});
  const Network na = std::move(a).finish_identity();
  const Network nb = std::move(b).finish_identity();
  const auto pass = make_relayer_pass();
  EXPECT_EQ(serialize_network(pass->run(na, {})),
            serialize_network(pass->run(nb, {})));
}

TEST(DedupAdjacentPass, CollapsesRunsOfIdenticalGates) {
  NetworkBuilder b(5);
  b.add_balancer({0, 1});
  b.add_balancer({0, 1});  // duplicate
  b.add_balancer({2, 3, 4});
  b.add_balancer({2, 3, 4});  // duplicate wide gate
  b.add_balancer({2, 3, 4});  // triple collapses too
  b.add_balancer({0, 1});     // duplicate across the untouched gap
  b.add_balancer({1, 2});     // NOT a duplicate: wire sets differ
  b.add_balancer({0, 1});     // NOT a duplicate: {1} was touched since
  const Network net = std::move(b).finish_identity();
  const auto pass = make_dedup_adjacent_pass();
  const Network out = pass->run(net, {});
  EXPECT_TRUE(out.validate().empty());
  EXPECT_EQ(out.gate_count(), 4u);
  expect_zero_one_equivalent(net, out);
  expect_counting_equivalent(net, out);
}

TEST(DedupAdjacentPass, KeepsGatesWithPermutedWireLists) {
  // Same wire set, different listed order: the second gate re-routes which
  // ranked value lands where and must survive.
  NetworkBuilder b(2);
  b.add_balancer({0, 1});
  b.add_balancer({1, 0});
  const Network net = std::move(b).finish_identity();
  const Network out = make_dedup_adjacent_pass()->run(net, {});
  EXPECT_EQ(out.gate_count(), 2u);
}

TEST(ZeroOneElimPass, RemovesEveryGateOfARedundantSecondSortingPass) {
  // Sorting an already-sorted stream: every comparator of the second
  // network is provably dead. This is the acceptance case: elimination
  // removes >= 1 gate on a constructed (composed) network.
  const Network batcher = make_batcher_network(8);
  const Network bubble = make_bubble_network(8);
  const Network composed = compose(batcher, bubble);
  const PassOptions opts{.semantics = Semantics::kComparator};
  const auto pass = make_zero_one_elim_pass();
  ASSERT_TRUE(pass->applicable(composed, opts));
  const Network out = pass->run(composed, opts);
  EXPECT_TRUE(out.validate().empty());
  EXPECT_EQ(out.gate_count(), batcher.gate_count());
  EXPECT_LE(out.depth(), batcher.depth());
  expect_zero_one_equivalent(composed, out);
}

TEST(ZeroOneElimPass, SkipsBalancerSemanticsAndWideNetworks) {
  const Network net = make_k_network({2, 2});
  const auto pass = make_zero_one_elim_pass();
  EXPECT_FALSE(pass->applicable(
      net, PassOptions{.semantics = Semantics::kBalancer}));
  // Width 20 exceeds the 16-wire cap on the exhaustive 0-1 sweep.
  EXPECT_FALSE(pass->applicable(
      make_l_network({5, 4}),
      PassOptions{.semantics = Semantics::kComparator}));
}

TEST(ZeroOneElimPass, KeepsEveryGateOfAMinimalNetwork) {
  // Every comparator of odd-even transposition sort fires on some input;
  // elimination must be a no-op.
  const Network net = make_bubble_network(6);
  const Network out = make_zero_one_elim_pass()->run(
      net, PassOptions{.semantics = Semantics::kComparator});
  EXPECT_EQ(out.gate_count(), net.gate_count());
}

TEST(Pipeline, DefaultRemovesGatesFromComposedNetworksAndStaysEquivalent) {
  const Network composed =
      compose(make_batcher_network(8), make_bubble_network(8));
  const PipelineResult result =
      optimize_network(composed, PassLevel::kDefault,
                       PassOptions{.semantics = Semantics::kComparator});
  EXPECT_GE(result.gates_removed(), make_bubble_network(8).gate_count());
  EXPECT_GT(result.layers_removed(), 0u);
  EXPECT_LE(result.network.depth(), composed.depth());
  expect_zero_one_equivalent(composed, result.network);
}

TEST(Pipeline, ProvenanceRecordsEveryConfiguredPass) {
  const Network net = make_k_network({2, 2});
  const PipelineResult result =
      optimize_network(net, PassLevel::kDefault,
                       PassOptions{.semantics = Semantics::kBalancer});
  ASSERT_EQ(result.passes.size(), 4u);
  EXPECT_EQ(result.passes[0].name, "relayer");
  EXPECT_EQ(result.passes[1].name, "dedup-adjacent");
  EXPECT_EQ(result.passes[2].name, "zero-one-elim");
  EXPECT_EQ(result.passes[3].name, "relayer");
  EXPECT_FALSE(result.passes[2].applied);  // balancer semantics => skipped
  // The stats chain is consistent: each pass starts where the last ended.
  for (std::size_t i = 1; i < result.passes.size(); ++i) {
    EXPECT_EQ(result.passes[i].gates_before, result.passes[i - 1].gates_after);
    EXPECT_EQ(result.passes[i].depth_before, result.passes[i - 1].depth_after);
  }
  EXPECT_FALSE(result.summary().empty());
}

TEST(Pipeline, LevelNoneIsIdentity) {
  const Network net = make_l_network({3, 2});
  const PipelineResult result = optimize_network(net, PassLevel::kNone);
  EXPECT_TRUE(result.passes.empty());
  EXPECT_EQ(serialize_network(result.network), serialize_network(net));
}

TEST(Pipeline, LevelParsingRoundTrips) {
  EXPECT_EQ(parse_pass_level("none"), PassLevel::kNone);
  EXPECT_EQ(parse_pass_level("default"), PassLevel::kDefault);
  EXPECT_FALSE(parse_pass_level("aggressive").has_value());
  EXPECT_FALSE(parse_pass_level("bogus").has_value());
  for (const PassLevel level : {PassLevel::kNone, PassLevel::kDefault}) {
    EXPECT_EQ(parse_pass_level(to_string(level)), level);
  }
  EXPECT_STREQ(to_string(Semantics::kBalancer), "balancer");
}

class CrossEngineAgreement
    : public ::testing::TestWithParam<std::tuple<std::string, PassLevel>> {};

TEST_P(CrossEngineAgreement, InterpreterOnOriginalEqualsPlanOnOptimized) {
  const auto [kind, level] = GetParam();
  Network net;
  if (std::string_view(kind) == "K16") net = make_k_network({4, 4});
  if (std::string_view(kind) == "L18") net = make_l_network({3, 3, 2});
  if (std::string_view(kind) == "bitonic16") net = make_bitonic_network(4);
  if (std::string_view(kind) == "batcher24") net = make_batcher_network(24);
  ASSERT_GE(net.width(), 16u);

  const CachedPlan cached = compiled_plan(
      net, level, PassOptions{.semantics = Semantics::kComparator});
  std::mt19937_64 rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    const auto in = random_count_vector(rng, net.width(), 500);
    ASSERT_EQ(comparator_output_counts(net, in),
              plan_comparator_output(*cached.plan, in))
        << kind << " @ " << to_string(level) << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    NetworksAndLevels, CrossEngineAgreement,
    ::testing::Combine(::testing::Values("K16", "L18", "bitonic16",
                                         "batcher24"),
                       ::testing::Values(PassLevel::kNone,
                                         PassLevel::kDefault)),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_" +
             to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace scn
