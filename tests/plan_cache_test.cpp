// Canonical structural hashing and the LRU plan cache: hit/miss/eviction
// accounting, order-insensitivity of the hash, and correctness of cached
// plans against the per-gate interpreter.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <tuple>

#include "baseline/batcher.h"
#include "baseline/bitonic.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "engine/batch_engine.h"
#include "engine/execution_plan.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "opt/plan_cache.h"
#include "perf/thread_pool.h"
#include "seq/generators.h"
#include "sim/comparator_sim.h"

namespace scn {
namespace {

TEST(StructuralHash, InsensitiveToIndependentGateOrder) {
  NetworkBuilder a(6);
  a.add_balancer({4, 5});
  a.add_balancer({0, 1});
  a.add_balancer({2, 3});
  NetworkBuilder b(6);
  b.add_balancer({0, 1});
  b.add_balancer({2, 3});
  b.add_balancer({4, 5});
  EXPECT_EQ(structural_hash(std::move(a).finish_identity()),
            structural_hash(std::move(b).finish_identity()));
}

TEST(StructuralHash, SensitiveToStructure) {
  const Network k22 = make_k_network({2, 2});
  const Network k23 = make_k_network({2, 3});
  EXPECT_NE(structural_hash(k22), structural_hash(k23));

  // Same gates, different logical output order.
  NetworkBuilder a(2);
  a.add_balancer({0, 1});
  NetworkBuilder b(2);
  b.add_balancer({0, 1});
  const Network identity = std::move(a).finish_identity();
  const Network swapped = std::move(b).finish({1, 0});
  EXPECT_NE(structural_hash(identity), structural_hash(swapped));

  // Same wire set, different listed (logical) order within the gate.
  NetworkBuilder c(2);
  c.add_balancer({1, 0});
  EXPECT_NE(structural_hash(identity),
            structural_hash(std::move(c).finish_identity()));
}

TEST(PlanCache, SecondLookupHitsAndSharesThePlan) {
  PlanCache cache(8);
  const Network net = make_k_network({2, 3});
  const CachedPlan first = cache.compiled(net);
  const CachedPlan second = cache.compiled(net);
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.plan.get(), second.plan.get());
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCache, StructurallyIdenticalRebuildsHit) {
  PlanCache cache(8);
  (void)cache.compiled(make_l_network({2, 2}));
  const CachedPlan again =
      cache.compiled(make_l_network({2, 2}));
  EXPECT_TRUE(again.hit);
}

TEST(PlanCache, DistinctNetworksGetDistinctEntries) {
  PlanCache cache(8);
  (void)cache.compiled(make_k_network({2, 3}));
  EXPECT_FALSE(cache.compiled(make_k_network({2, 2})).hit);
  EXPECT_FALSE(cache.compiled(make_l_network({2, 3})).hit);
  EXPECT_TRUE(cache.compiled(make_k_network({2, 3})).hit);
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(PlanCache, EvictsLeastRecentlyUsedAtCapacity) {
  PlanCache cache(1);
  const Network a = make_k_network({2, 2});
  const Network b = make_k_network({2, 3});
  (void)cache.compiled(a);
  (void)cache.compiled(b);  // evicts a
  const CachedPlan a_again = cache.compiled(a);
  EXPECT_FALSE(a_again.hit);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.capacity, 1u);
}

TEST(PlanCache, EvictedPlansSurviveForHolders) {
  PlanCache cache(1);
  const CachedPlan held =
      cache.compiled(make_k_network({2, 2}));
  (void)cache.compiled(make_k_network({2, 3}));
  // `held` was evicted from the cache but the shared_ptr keeps it alive.
  EXPECT_EQ(held.plan->width(), 4u);
}

TEST(PlanCache, ClearResetsEntriesAndCounters) {
  PlanCache cache(4);
  (void)cache.compiled(make_k_network({2, 2}));
  cache.clear();
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(PlanCache, CachedPlanMatchesInterpreter) {
  const Network net = make_bitonic_network(4);
  std::mt19937_64 rng(5);
  const CachedPlan cached = compiled_plan(net);
  for (int trial = 0; trial < 20; ++trial) {
    const auto in = random_count_vector(rng, net.width(), 300);
    ASSERT_EQ(comparator_output_counts(net, in),
              plan_comparator_output(*cached.plan, in));
  }
}

TEST(PlanCache, SharedCacheMissesRaceRegistrySnapshotsWithoutDeadlock) {
  // Regression for a lock-order inversion: the shared cache's miss path
  // compiles under the cache mutex, and its instrumentation
  // may take the registry lock (first-use counter resolution) — so the
  // registry-side entries gauge must never lock the cache mutex. Misses
  // racing snapshots here deadlocked before the gauge sampled an atomic.
  std::atomic<bool> stop{false};
  std::thread sampler([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)obs::MetricsRegistry::shared().snapshot();
      (void)obs::MetricsRegistry::shared().value("plan_cache.entries");
    }
  });
  {
    ThreadPool pool(4);
    pool.parallel_for(8, 1, [](std::size_t begin, std::size_t end) {
      for (std::size_t k = 2 + begin; k < 2 + end; ++k) {
        (void)compiled_plan(make_k_network({2, k}));
      }
    });
  }
  stop.store(true, std::memory_order_relaxed);
  sampler.join();
  // The gauge mirrors the cache's entry count exactly when quiescent.
  EXPECT_EQ(obs::MetricsRegistry::shared().value("plan_cache.entries"),
            PlanCache::shared().stats().entries);
}

// Randomized agreement at widths past exhaustive reach: the per-gate
// interpreter on the network as built against the plan run on the compiled
// form. "none" compiles the network directly with compile_plan(); "default"
// takes the cached path every caller uses, compiled_plan(). (The names date
// from when a pass pipeline sat between the two; both paths now compile the
// network as constructed, in compile_plan's canonical gate order.)
class CrossEngineAgreement
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(CrossEngineAgreement, InterpreterOnOriginalEqualsPlanOnOptimized) {
  const auto [kind, path] = GetParam();
  Network net;
  if (kind == "K16") net = make_k_network({4, 4});
  if (kind == "L18") net = make_l_network({3, 3, 2});
  if (kind == "bitonic16") net = make_bitonic_network(4);
  if (kind == "batcher24") net = make_batcher_network(24);
  ASSERT_GE(net.width(), 16u);

  std::shared_ptr<const ExecutionPlan> plan;
  if (path == "none") {
    plan = std::make_shared<const ExecutionPlan>(compile_plan(net));
  } else {
    plan = compiled_plan(net).plan;
  }
  ASSERT_NE(plan, nullptr);
  std::mt19937_64 rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    const auto in = random_count_vector(rng, net.width(), 500);
    ASSERT_EQ(comparator_output_counts(net, in),
              plan_comparator_output(*plan, in))
        << kind << " @ " << path << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    NetworksAndLevels, CrossEngineAgreement,
    ::testing::Combine(::testing::Values("K16", "L18", "bitonic16",
                                         "batcher24"),
                       ::testing::Values("none", "default")),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_" +
             std::get<1>(param_info.param);
    });

}  // namespace
}  // namespace scn
