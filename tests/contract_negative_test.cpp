// Negative contract tests: the conditional networks (mergers) genuinely
// NEED their preconditions. For each conditional family we exhibit a
// precondition-violating input that produces a non-step output — proving
// the test suite's positive checks aren't vacuously passing on networks
// that would fix anything.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/bitonic_converter.h"
#include "core/counting_network.h"
#include "core/k_network.h"
#include "core/staircase_merger.h"
#include "core/two_merger.h"
#include "perf/hot_path.h"
#include "seq/generators.h"
#include "sim/concurrent_sim.h"
#include "sim/count_sim.h"
#include "verify/checkers.h"

namespace scn {
namespace {

/// Searches random inputs violating `precondition` until the network
/// produces a non-step output; returns true when a witness was found.
template <typename MakeInput>
bool find_violation(const Network& net, MakeInput make_input,
                    int max_trials = 3000) {
  std::mt19937_64 rng(99);
  for (int t = 0; t < max_trials; ++t) {
    const std::vector<Count> in = make_input(rng);
    if (!has_step_property(output_counts(net, in))) return true;
  }
  return false;
}

TEST(NegativeContract, TwoMergerNeedsStepInputs) {
  const Network net = make_two_merger_network(3, 2, 2);
  const bool witness = find_violation(net, [&](std::mt19937_64& rng) {
    // Arbitrary (non-step) inputs on both operands.
    return random_count_vector(rng, net.width(), 19);
  });
  EXPECT_TRUE(witness)
      << "T appears to count unconditionally — contract tests are vacuous";
}

TEST(NegativeContract, BitonicConverterNeedsBitonicInput) {
  const Network net = make_bitonic_converter_network(3, 4);
  const bool witness = find_violation(net, [&](std::mt19937_64& rng) {
    // 3-transition sequences (just beyond the bitonic property).
    std::vector<Count> in(net.width(), 0);
    std::uniform_int_distribution<std::size_t> pos(0, net.width() - 1);
    for (int b = 0; b < 3; ++b) in[pos(rng)] += 2;
    return in;
  });
  EXPECT_TRUE(witness);
}

TEST(NegativeContract, StaircaseMergerNeedsTheStaircaseProperty) {
  const Network net = make_staircase_merger_network(
      3, 2, 2, single_balancer_base(), StaircaseVariant::kRebalanceBitonic);
  const bool witness = find_violation(net, [&](std::mt19937_64& rng) {
    // Step columns whose sums violate the p-staircase bound badly.
    std::vector<Count> in;
    std::uniform_int_distribution<Count> total(0, 30);
    for (std::size_t i = 0; i < 2; ++i) {
      const auto x = step_sequence(6, total(rng));
      in.insert(in.end(), x.begin(), x.end());
    }
    return in;
  });
  EXPECT_TRUE(witness);
}

TEST(NegativeContract, StaircaseMergerBoundIsNotVacuous) {
  // Positive boundary: spreads of exactly p (the contract limit) always
  // work. Beyond the bound there exist failing inputs — the witness shape
  // is S(3, 2, 3) at spread 5 (small overloads often still collapse to
  // step, so the bound is sufficient but not tight for every shape).
  const std::size_t r = 3, p = 2, q = 3;
  const Network net = make_staircase_merger_network(
      r, p, q, single_balancer_base(), StaircaseVariant::kRebalanceCount);
  const std::size_t len = r * p;
  // Exact-p spread across all base totals: always step.
  for (Count base = 0; base <= 12; ++base) {
    std::vector<Count> in;
    for (std::size_t i = 0; i < q; ++i) {
      const auto x = step_sequence(
          len, base + (i == 0 ? static_cast<Count>(p) : Count{0}));
      in.insert(in.end(), x.begin(), x.end());
    }
    ASSERT_TRUE(is_exact_step_output(output_counts(net, in))) << base;
  }
  // Some beyond-bound spread must fail.
  bool witness = false;
  for (Count base = 0; base <= 12 && !witness; ++base) {
    for (Count spread = static_cast<Count>(p) + 1;
         spread <= static_cast<Count>(6 * p) && !witness; ++spread) {
      std::vector<Count> in;
      for (std::size_t i = 0; i < q; ++i) {
        const auto x =
            step_sequence(len, base + (i == 0 ? spread : Count{0}));
        in.insert(in.end(), x.begin(), x.end());
      }
      witness = !has_step_property(output_counts(net, in));
    }
  }
  EXPECT_TRUE(witness) << "S appears insensitive to the staircase bound";
}

TEST(NegativeContract, AddBalancerRejectsDuplicateAndOutOfRangeWires) {
  if (!builder_checks_enabled()) {
    GTEST_SKIP() << "library built without SCNET_CHECKED";
  }
  NetworkBuilder b(4);
  EXPECT_THROW(b.add_balancer({Wire{0}, Wire{0}}), std::invalid_argument);
  EXPECT_THROW(b.add_balancer({Wire{2}, Wire{3}, Wire{2}}),
               std::invalid_argument);
  EXPECT_THROW(b.add_balancer({Wire{1}, Wire{4}}), std::invalid_argument);
  EXPECT_THROW(b.add_balancer({Wire{-1}, Wire{1}}), std::invalid_argument);
  // The contract is checked before any mutation: rejected calls leave no
  // partial gate behind, and the builder keeps working.
  EXPECT_EQ(b.gate_count(), 0u);
  b.add_balancer({Wire{0}, Wire{1}, Wire{2}, Wire{3}});
  const Network net = std::move(b).finish_identity();
  EXPECT_EQ(net.gate_count(), 1u);
  EXPECT_EQ(net.depth(), 1u);
  EXPECT_TRUE(net.validate().empty()) << net.validate();
}

TEST(NegativeContract, ConcurrentNetworkQuiescenceGuard) {
  // output_counts() and reset() are only meaningful with no token in
  // flight. traverse() can't be paused mid-network from a test, so the
  // guard exposes begin_token()/end_token() to mark an external token in
  // flight deterministically — exactly what the service's batching front
  // end does across a batch.
  if (!builder_checks_enabled()) {
    GTEST_SKIP() << "library built without SCNET_CHECKED";
  }
  const Network net = make_k_network({2, 2});
  ConcurrentNetwork cn(net);
  EXPECT_EQ(cn.in_flight(), 0u);
  cn.begin_token();
  EXPECT_EQ(cn.in_flight(), 1u);
  EXPECT_THROW((void)cn.output_counts(), std::logic_error);
  EXPECT_THROW(cn.reset(), std::logic_error);
  cn.end_token();
  EXPECT_EQ(cn.in_flight(), 0u);
  // Quiescent again: both calls work and the guard left no residue.
  (void)cn.traverse(0);
  EXPECT_EQ(cn.output_counts()[0], 1);
  cn.reset();
  EXPECT_EQ(cn.output_counts()[0], 0);
}

TEST(NegativeContract, TokenBegunOnOneThreadEndsOnAnother) {
  // The guard is striped per thread, so a token marked in flight on one
  // thread and finished on another leaves two stripes off by one in
  // opposite directions; their sum must still come back to exactly 0.
  if (!builder_checks_enabled()) {
    GTEST_SKIP() << "library built without SCNET_CHECKED";
  }
  const Network net = make_k_network({2, 2});
  ConcurrentNetwork cn(net);
  std::thread([&] { cn.begin_token(); }).join();
  EXPECT_EQ(cn.in_flight(), 1u);
  EXPECT_THROW((void)cn.output_counts(), std::logic_error);
  std::thread([&] { cn.end_token(); }).join();
  EXPECT_EQ(cn.in_flight(), 0u);
  EXPECT_NO_THROW((void)cn.output_counts());
  EXPECT_NO_THROW(cn.reset());
}

TEST(NegativeContract, GuardReadsZeroAfterConcurrentTraversals) {
  // More threads than stripes, so some stripes are shared: after the
  // joins the guard reads 0, output_counts() succeeds, and the counts are
  // the exact step sequence of every token routed.
  constexpr std::size_t kThreads = StripedCount::kStripes + 4;
  constexpr std::uint64_t kPerThread = 2000;
  const Network net = make_k_network({2, 2, 2});
  ConcurrentNetwork cn(net);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        (void)cn.traverse(static_cast<Wire>((t + i) % net.width()));
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(cn.in_flight(), 0u);
  std::vector<Count> counts;
  ASSERT_NO_THROW(counts = cn.output_counts());
  Count total = 0;
  for (const Count c : counts) total += c;
  EXPECT_EQ(total, static_cast<Count>(kThreads * kPerThread));
  EXPECT_TRUE(is_exact_step_output(counts)) << format_sequence(counts);
}

TEST(NegativeContract, StripedCountDeficitNeverReadsAsWrappedNegative) {
  // A read racing a cross-thread token can see its decrement but not its
  // increment. Reproduced deterministically by decrementing first: the
  // transient deficit must read as 0, not as 2^64 - 1.
  StripedCount count;
  std::thread([&] { count.decrement(); }).join();
  EXPECT_EQ(count.sum(), 0u);
  std::thread([&] { count.increment(); }).join();
  EXPECT_EQ(count.sum(), 0u);
  count.increment();
  count.increment();
  EXPECT_EQ(count.sum(), 2u);
  std::thread([&] { count.decrement(); }).join();
  EXPECT_EQ(count.sum(), 1u);
}

TEST(NegativeContract, CountingNetworksHaveNoSuchWitness) {
  // Control: the same witness search run against a true counting network
  // must come up empty.
  NetworkBuilder b(12);
  const std::vector<std::size_t> factors = {2, 3, 2};
  const auto out = build_counting(b, identity_order(12), factors,
                                  single_balancer_base(),
                                  StaircaseVariant::kRebalanceCount);
  const Network net = std::move(b).finish(std::vector<Wire>(out));
  const bool witness = find_violation(
      net,
      [&](std::mt19937_64& rng) {
        return random_count_vector(rng, net.width(), 31);
      },
      1000);
  EXPECT_FALSE(witness);
}

}  // namespace
}  // namespace scn
