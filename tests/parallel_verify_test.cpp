// Parallel counting verification: same verdicts as the sequential
// verifier, witnesses replay, thread-count independence.
#include <gtest/gtest.h>

#include "baseline/bubble.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "runtime/runtime.h"
#include "sim/count_sim.h"
#include "verify/parallel_verify.h"

namespace scn {
namespace {

TEST(ParallelVerify, AcceptsCountingNetworks) {
  for (const auto& factors :
       {std::vector<std::size_t>{2, 2, 2}, {3, 2, 2}, {4, 4}}) {
    const Network net = make_k_network(factors);
    const CountingVerdict v = verify_counting_parallel(net);
    EXPECT_TRUE(v.ok);
    EXPECT_GT(v.inputs_checked, 0u);
  }
}

TEST(ParallelVerify, RejectsBubbleWithReplayableWitness) {
  const Network net = make_bubble_network(5);
  const CountingVerdict v = verify_counting_parallel(net);
  ASSERT_FALSE(v.ok);
  ASSERT_FALSE(v.counterexample.empty());
  EXPECT_FALSE(counts_to_step(net, v.counterexample));
}

TEST(ParallelVerify, VerdictIndependentOfThreadCount) {
  const Network good = make_l_network({2, 3, 2});
  const Network bad = make_bubble_network(4);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    Runtime rt(Runtime::Options{.threads = threads});
    EXPECT_TRUE(verify_counting_parallel(good, {}, rt).ok) << threads;
    EXPECT_FALSE(verify_counting_parallel(bad, {}, rt).ok) << threads;
  }
}

TEST(ParallelVerify, MatchesSequentialOnPopulationSize) {
  // Structured count is deterministic: (#structured + random_per_total)
  // per total when the network is correct.
  const Network net = make_k_network({2, 2});
  CountingVerifyOptions opts;
  opts.max_total = 10;
  opts.random_per_total = 3;
  const CountingVerdict v = verify_counting_parallel(net, opts);
  EXPECT_TRUE(v.ok);
  // 11 totals x (7 structured + 3 random) = 110.
  EXPECT_EQ(v.inputs_checked, 110u);
}

TEST(ParallelVerify, SingleThreadEqualsSequentialVerdicts) {
  Runtime one(Runtime::Options{.threads = 1});
  CountingVerifyOptions opts;
  opts.max_total = 25;
  for (const auto& factors : {std::vector<std::size_t>{2, 2}, {3, 2}}) {
    const Network net = make_k_network(factors);
    EXPECT_EQ(verify_counting_parallel(net, opts, one).ok,
              verify_counting(net, opts).ok);
  }
}

}  // namespace
}  // namespace scn
