// The high-level Sorter / Counter API and the umbrella header.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <stdexcept>
#include <thread>

#include "engine/execution_plan.h"
#include "opt/plan_cache.h"
#include "scnet.h"

// Global operator new, counted on the calling thread while t_counting is
// set. Every form that can pair with a replaced delete is replaced, so
// sanitizer builds see matching malloc/free.
namespace {
thread_local bool t_counting = false;
thread_local std::size_t t_news = 0;

void* counted_malloc(std::size_t n) noexcept {
  if (t_counting) ++t_news;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace scn {
namespace {

std::size_t plan_ces(const ExecutionPlan& plan) {
  return plan.pair_wires().size() / 2 + plan.ce_wires().size() / 2;
}

TEST(Sorter, SortsArbitraryWidths) {
  std::mt19937_64 rng(1);
  for (const std::size_t w : {0u, 1u, 4u, 7u, 12u, 30u, 60u, 97u, 128u}) {
    const Sorter sorter(w);
    EXPECT_EQ(sorter.width(), w);
    auto vals = random_values(rng, w, -50, 50);
    auto expected = vals;
    std::sort(expected.begin(), expected.end());
    sorter.sort(vals);
    EXPECT_EQ(vals, expected) << "width " << w;
  }
}

// Every width from 2 to 128, primes included: the plan sorts like std::sort
// and like the per-gate interpreter on the network, and costs no more
// compare-exchanges than the L member's default plan at that width.
class SorterWidth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SorterWidth, SortsLikeStdSortInNoMoreCesThanTheLMember) {
  const std::size_t w = GetParam();
  const Sorter sorter(w);
  ASSERT_EQ(sorter.width(), w);
  std::mt19937_64 rng(w);
  constexpr Count kMin = std::numeric_limits<Count>::min();
  constexpr Count kMax = std::numeric_limits<Count>::max();
  std::vector<std::vector<Count>> inputs = {
      random_values(rng, w, -1000000, 1000000), random_values(rng, w, 0, 2)};
  std::vector<Count> extremes(w);
  for (Count& v : extremes) {
    const Count pick[] = {kMin, kMax, 0, -1, kMin + 1, kMax - 1};
    v = pick[rng() % 6];
  }
  inputs.push_back(extremes);
  for (const std::vector<Count>& in : inputs) {
    std::vector<Count> expected = in;
    std::sort(expected.begin(), expected.end());
    std::vector<Count> vals = in;
    sorter.sort(vals);
    EXPECT_EQ(vals, expected);
    std::vector<Count> interp = comparator_output_counts(sorter.network(), in);
    std::reverse(interp.begin(), interp.end());
    EXPECT_EQ(vals, interp);
  }

  const Network l = make_network_for_width(w, Sorter::Options{}.max_comparator,
                                           NetworkKind::kL);
  EXPECT_LE(plan_ces(sorter.plan()),
            plan_ces(*Runtime::shared().compiled(l).plan));
}

INSTANTIATE_TEST_SUITE_P(TwoTo128, SorterWidth,
                         ::testing::Range<std::size_t>(2, 129));

TEST(Sorter, Width64RunsBatchersCeCount) {
  // L(8x8) expands to 1,084 compare-exchanges; Batcher's odd-even
  // mergesort at 64 wires is 543.
  EXPECT_EQ(plan_ces(Sorter(64).plan()), 543u);
}

TEST(Sorter, WrongLengthThrowsAndLeavesInputIntact) {
  const Sorter sorter(64);
  for (const std::size_t n : {std::size_t{8}, std::size_t{63},
                              std::size_t{65}}) {
    std::vector<Count> vals(n);
    for (std::size_t i = 0; i < n; ++i) vals[i] = static_cast<Count>(n - i);
    const std::vector<Count> before = vals;
    EXPECT_THROW(sorter.sort(vals), std::invalid_argument) << n;
    EXPECT_EQ(vals, before) << n;
    EXPECT_THROW((void)sorter.sorted(vals), std::invalid_argument) << n;
  }
}

TEST(Sorter, SortAllocatesNothingAfterWarmUp) {
  // 300 is wider than any fixed stack buffer a sort path might use.
  std::mt19937_64 rng(5);
  for (const std::size_t w : {std::size_t{64}, std::size_t{300}}) {
    const Sorter sorter(w);
    std::vector<Count> vals = random_values(rng, w, -1000, 1000);
    sorter.sort(vals);  // warm-up: first call on this thread at width w
    t_news = 0;
    t_counting = true;
    for (std::size_t i = 0; i < 1000; ++i) {
      vals[i % w] = static_cast<Count>(i * 7919 % 2001) - 1000;
      sorter.sort(vals);
    }
    t_counting = false;
    EXPECT_EQ(t_news, 0u) << "width " << w;
    EXPECT_TRUE(std::is_sorted(vals.begin(), vals.end())) << "width " << w;
  }
}

TEST(Sorter, RespectsComparatorBudgetWhenFeasible) {
  const Sorter sorter(64, Sorter::Options{.max_comparator = 4});
  EXPECT_LE(sorter.network().max_gate_width(), 4u);
  const Sorter wide(64, Sorter::Options{.max_comparator = 64});
  EXPECT_LE(wide.network().max_gate_width(), 64u);
}

TEST(Sorter, PrimeWidthFallsBackGracefully) {
  // 31 is prime: no balancer cap below 31 exists; sorting must still work.
  const Sorter sorter(31, Sorter::Options{.max_comparator = 4});
  std::mt19937_64 rng(2);
  auto vals = random_permutation(rng, 31);
  sorter.sort(vals);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(vals[i], static_cast<Count>(i));
  }
}

TEST(Sorter, SortedCopyLeavesInputIntact) {
  const Sorter sorter(8);
  const std::vector<Count> vals = {5, 3, 8, 1, 9, 2, 7, 4};
  const auto out = sorter.sorted(vals);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(vals[0], 5);  // untouched
}

TEST(Sorter, DuplicateHeavyInputs) {
  const Sorter sorter(24);
  std::mt19937_64 rng(3);
  for (int t = 0; t < 30; ++t) {
    auto vals = random_values(rng, 24, 0, 3);
    auto expected = vals;
    std::sort(expected.begin(), expected.end());
    sorter.sort(vals);
    EXPECT_EQ(vals, expected);
  }
}

TEST(Counter, SequentialContiguity) {
  Counter counter(Counter::Options{.width = 8, .max_balancer = 2});
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(counter.next(), i);
  }
}

TEST(Counter, NetworkRespectsBalancerCap) {
  Counter counter(Counter::Options{.width = 16, .max_balancer = 4});
  EXPECT_LE(counter.network().max_gate_width(), 4u);
  EXPECT_EQ(counter.network().width(), 16u);
}

TEST(Counter, ConcurrentPermutation) {
  Counter counter(Counter::Options{.width = 16, .max_balancer = 4});
  constexpr std::size_t kThreads = 6, kPer = 2000;
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = 0; i < kPer; ++i) {
        got[t].push_back(counter.next());
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  std::vector<std::uint64_t> all;
  for (auto& g : got) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i);
}

TEST(UmbrellaHeader, ExposesEverything) {
  // Spot-instantiate one symbol from each subsystem via scnet.h only.
  const Network k = make_k_network({2, 2});
  EXPECT_TRUE(verify_counting(k).ok);
  EXPECT_EQ(bitonic_depth_formula(3), 6u);
  EXPECT_FALSE(to_dot(k).empty());
  EXPECT_TRUE(parse_network(serialize_network(k)).network.has_value());
  EXPECT_GT(estimate_contention(k).hops_per_token, 0.0);
  EXPECT_LE(probe_smoothing_exhaustive(k, 1).worst_spread, 1);
}

}  // namespace
}  // namespace scn
