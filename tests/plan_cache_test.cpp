// Canonical structural hashing and the LRU plan cache: hit/miss/eviction
// accounting, order-insensitivity of the hash, and correctness of cached
// plans against the per-gate interpreter.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>

#include "baseline/bitonic.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "engine/batch_engine.h"
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
  const CachedPlan first = cache.compiled(net, PassLevel::kDefault);
  const CachedPlan second = cache.compiled(net, PassLevel::kDefault);
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.plan.get(), second.plan.get());
  EXPECT_EQ(first.passes.get(), second.passes.get());
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCache, StructurallyIdenticalRebuildsHit) {
  PlanCache cache(8);
  (void)cache.compiled(make_l_network({2, 2}), PassLevel::kDefault);
  const CachedPlan again =
      cache.compiled(make_l_network({2, 2}), PassLevel::kDefault);
  EXPECT_TRUE(again.hit);
}

TEST(PlanCache, DistinctConfigurationsGetDistinctEntries) {
  PlanCache cache(8);
  const Network net = make_k_network({2, 3});
  (void)cache.compiled(net, PassLevel::kDefault);
  const CachedPlan none = cache.compiled(net, PassLevel::kNone);
  EXPECT_FALSE(none.hit);
  const CachedPlan balancer = cache.compiled(
      net, PassLevel::kDefault, PassOptions{.semantics = Semantics::kBalancer});
  EXPECT_FALSE(balancer.hit);
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(PlanCache, EvictsLeastRecentlyUsedAtCapacity) {
  PlanCache cache(1);
  const Network a = make_k_network({2, 2});
  const Network b = make_k_network({2, 3});
  (void)cache.compiled(a, PassLevel::kDefault);
  (void)cache.compiled(b, PassLevel::kDefault);  // evicts a
  const CachedPlan a_again = cache.compiled(a, PassLevel::kDefault);
  EXPECT_FALSE(a_again.hit);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.capacity, 1u);
}

TEST(PlanCache, EvictedPlansSurviveForHolders) {
  PlanCache cache(1);
  const CachedPlan held =
      cache.compiled(make_k_network({2, 2}), PassLevel::kDefault);
  (void)cache.compiled(make_k_network({2, 3}), PassLevel::kDefault);
  // `held` was evicted from the cache but the shared_ptr keeps it alive.
  EXPECT_EQ(held.plan->width(), 4u);
}

TEST(PlanCache, ClearResetsEntriesAndCounters) {
  PlanCache cache(4);
  (void)cache.compiled(make_k_network({2, 2}), PassLevel::kDefault);
  cache.clear();
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(PlanCache, CachedPlanMatchesInterpreterOnEveryLevel) {
  const Network net = make_bitonic_network(4);
  std::mt19937_64 rng(5);
  for (const PassLevel level : {PassLevel::kNone, PassLevel::kDefault}) {
    const CachedPlan cached = compiled_plan(net, level);
    for (int trial = 0; trial < 20; ++trial) {
      const auto in = random_count_vector(rng, net.width(), 300);
      ASSERT_EQ(comparator_output_counts(net, in),
                plan_comparator_output(*cached.plan, in))
          << to_string(level);
    }
  }
}

TEST(PlanCache, SharedCacheMissesRaceRegistrySnapshotsWithoutDeadlock) {
  // Regression for a lock-order inversion: the shared cache's miss path
  // optimizes and compiles under the cache mutex, and its instrumentation
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
    for (std::size_t k = 2; k <= 9; ++k) {
      pool.submit([k] {
        (void)compiled_plan(make_k_network({2, k}), PassLevel::kDefault);
      });
    }
    pool.wait_idle();
  }
  stop.store(true, std::memory_order_relaxed);
  sampler.join();
  // The gauge mirrors the cache's entry count exactly when quiescent.
  EXPECT_EQ(obs::MetricsRegistry::shared().value("plan_cache.entries"),
            PlanCache::shared().stats().entries);
}

TEST(PlanCache, ProvenanceTravelsWithThePlan) {
  PlanCache cache(4);
  const CachedPlan cached =
      cache.compiled(make_k_network({2, 3}), PassLevel::kDefault);
  ASSERT_NE(cached.passes, nullptr);
  EXPECT_EQ(cached.passes->size(), 4u);  // default pipeline length
}

}  // namespace
}  // namespace scn
