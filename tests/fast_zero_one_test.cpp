// Exhaustive 0-1 verifier on the engine's bit-plane walk: agrees with the
// scalar verifier everywhere (verdict, counterexample and inputs checked, on
// one thread and on a pool), and proves the width-32 plans the workloads run.
#include <gtest/gtest.h>

#include <stdexcept>

#include "baseline/batcher.h"
#include "baseline/bubble.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "core/r_network.h"
#include "verify/fast_zero_one.h"

namespace scn {
namespace {

Runtime& one_thread() {
  static Runtime rt(Runtime::Options{1});
  return rt;
}

Runtime& four_threads() {
  static Runtime rt(Runtime::Options{4});
  return rt;
}

void expect_agreement(const Network& net) {
  const SortingVerdict slow = verify_sorting_exhaustive(net);
  for (Runtime* rt : {&one_thread(), &four_threads()}) {
    const SortingVerdict fast = fast_verify_sorting_exhaustive(net, *rt);
    EXPECT_EQ(slow.ok, fast.ok) << rt->threads() << " threads";
    EXPECT_EQ(slow.counterexample, fast.counterexample)
        << rt->threads() << " threads";
    EXPECT_EQ(slow.inputs_checked, fast.inputs_checked)
        << rt->threads() << " threads";
  }
}

void expect_proof(const Network& net) {
  ASSERT_EQ(net.width(), 32u);
  const SortingVerdict v = fast_verify_sorting_exhaustive(net);
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.inputs_checked, std::uint64_t{1} << 32);
}

TEST(FastZeroOne, AgreesOnSortingNetworks) {
  expect_agreement(make_k_network({2, 3, 2}));
  expect_agreement(make_l_network({3, 2, 2}));
  expect_agreement(make_batcher_network(11));
  expect_agreement(make_bubble_network(7));
}

TEST(FastZeroOne, AgreesOnBrokenNetworks) {
  // Identity and half-finished networks must be rejected with the scalar
  // verifier's witness.
  expect_agreement(NetworkBuilder(5).finish_identity());
  NetworkBuilder b(6);
  b.add_balancer({0, 1});
  b.add_balancer({2, 3});
  expect_agreement(std::move(b).finish_identity());
}

TEST(FastZeroOne, SmallestFailingIndexLiesPastTheFirstBlocks) {
  // Bubble sort on wires 0..14 of 16: every vector with wire 15 at 0 is
  // sorted, so the first failure is index 2^15, in block 8 of 16. On four
  // threads later blocks may fail first; the verdict must still name 2^15.
  NetworkBuilder b(16);
  for (Wire pass = 0; pass < 14; ++pass) {
    for (Wire j = 13; j >= pass; --j) b.add_balancer({j, j + 1});
  }
  const Network net = std::move(b).finish_identity();
  expect_agreement(net);
  EXPECT_EQ(fast_verify_sorting_exhaustive(net, four_threads()).inputs_checked,
            (std::uint64_t{1} << 15) + 1);
}

TEST(FastZeroOne, WideGateNetworks) {
  // Wide gates reach the walk only through the plan's compare-exchange
  // expansion.
  expect_agreement(make_k_network({4, 4}));  // 16-wide gate
  expect_agreement(make_k_network({16}));    // single 16-balancer
}

TEST(FastZeroOne, ExhaustiveProofsAtWidth18) {
  // 2^18 = 262k vectors per network.
  EXPECT_TRUE(fast_verify_sorting_exhaustive(make_k_network({3, 3, 2})).ok);
  EXPECT_TRUE(fast_verify_sorting_exhaustive(make_l_network({3, 3, 2})).ok);
  EXPECT_TRUE(fast_verify_sorting_exhaustive(make_r_network(3, 6)).ok);
}

TEST(FastZeroOne, ExhaustiveProofsAtWidth20) {
  EXPECT_TRUE(fast_verify_sorting_exhaustive(make_k_network({5, 2, 2})).ok);
  EXPECT_TRUE(fast_verify_sorting_exhaustive(make_r_network(4, 5)).ok);
  EXPECT_TRUE(fast_verify_sorting_exhaustive(make_batcher_network(20)).ok);
}

TEST(FastZeroOne, PartialChunkWidthsBelowSix) {
  // Below width 6 one word holds more bits than there are vectors, and
  // below 12 one block more words.
  expect_agreement(make_k_network({2, 2}));
  expect_agreement(make_bubble_network(3));
  expect_agreement(make_bubble_network(5));
}

TEST(FastZeroOne, RejectsWidth64) {
  const Network net = NetworkBuilder(64).finish_identity();
  EXPECT_THROW((void)fast_verify_sorting_exhaustive(net),
               std::invalid_argument);
}

// One test per width-32 proof, so that `ctest -j` runs them side by side.
TEST(FastZeroOneWidth32, ProvesSortBatchPlanL2x2x2x2x2) {
  expect_proof(make_l_network({2, 2, 2, 2, 2}));
}

TEST(FastZeroOneWidth32, ProvesK2x2x2x2x2) {
  expect_proof(make_k_network({2, 2, 2, 2, 2}));
}

TEST(FastZeroOneWidth32, ProvesL4x8) { expect_proof(make_l_network({4, 8})); }

TEST(FastZeroOneWidth32, ProvesBatcher32) {
  expect_proof(make_batcher_network(32));
}

}  // namespace
}  // namespace scn
