// The runtime/service layer (runtime/runtime.h): Runtime::shared() fronts
// the process-wide singletons exactly, private Runtimes are fully isolated
// (no shared cache entries, metric counters, or pool threads), options are
// resolved once at construction, and clear_caches() resets the registry
// counters atomically with each purge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/high_level.h"
#include "core/k_network.h"
#include "engine/execution_plan.h"
#include "core/l_network.h"
#include "core/module.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "opt/plan_cache.h"
#include "perf/thread_pool.h"
#include "runtime/runtime.h"
#include "seq/generators.h"

namespace scn {
namespace {

std::uint64_t metric(Runtime& rt, std::string_view name) {
  return rt.metrics().value(name);
}

/// Interning on regardless of SCNET_MODULE_CACHE, for the tests that
/// count module-cache misses.
Runtime::Options interning() {
  Runtime::Options o;
  o.module_cache = true;
  return o;
}

TEST(Runtime, SharedFrontsTheProcessWideSingletons) {
  Runtime& rt = Runtime::shared();
  EXPECT_TRUE(rt.is_shared());
  EXPECT_EQ(&Runtime::shared(), &rt);
  EXPECT_EQ(&rt.module_cache(), &ModuleCache::shared());
  EXPECT_EQ(&rt.plan_cache(), &PlanCache::shared());
  EXPECT_EQ(&rt.metrics(), &obs::MetricsRegistry::shared());
  EXPECT_EQ(&rt.pool(), &ThreadPool::shared());
}

TEST(Runtime, PrivateRuntimesShareNoCacheOrMetricState) {
  Runtime rt1(interning());
  Runtime rt2(interning());
  EXPECT_FALSE(rt1.is_shared());
  EXPECT_NE(&rt1.module_cache(), &rt2.module_cache());
  EXPECT_NE(&rt1.plan_cache(), &rt2.plan_cache());
  EXPECT_NE(&rt1.metrics(), &rt2.metrics());

  const Network net = make_l_network({2, 3, 4}, rt1);
  (void)rt1.compiled(net);

  const ModuleCacheStats m1 = rt1.module_cache().stats();
  EXPECT_GT(m1.misses, 0u);
  EXPECT_GT(m1.entries, 0u);
  EXPECT_GT(rt1.plan_cache().stats().misses, 0u);
  // The cache publishes into ITS runtime's registry under the usual names.
  EXPECT_EQ(metric(rt1, "module_cache.misses"), m1.misses);
  EXPECT_EQ(metric(rt1, "module_cache.entries"), m1.entries);

  // rt2 observed none of it: no entries, no counters, nothing in the
  // registry.
  const ModuleCacheStats m2 = rt2.module_cache().stats();
  EXPECT_EQ(m2.hits + m2.misses, 0u);
  EXPECT_EQ(m2.entries, 0u);
  const PlanCacheStats p2 = rt2.plan_cache().stats();
  EXPECT_EQ(p2.hits + p2.misses, 0u);
  EXPECT_EQ(p2.entries, 0u);
  EXPECT_EQ(metric(rt2, "module_cache.misses"), 0u);
  EXPECT_EQ(metric(rt2, "plan_cache.misses"), 0u);
}

TEST(Runtime, PrivateBuildsDoNotPolluteTheSharedRegistry) {
  const CacheStatsReport before = cache_stats();
  Runtime rt;
  const Network net = make_l_network({3, 4}, rt);
  (void)rt.compiled(net);
  (void)rt.compiled(net);
  const CacheStatsReport after = cache_stats();
  EXPECT_EQ(after.module_hits, before.module_hits);
  EXPECT_EQ(after.module_misses, before.module_misses);
  EXPECT_EQ(after.module_entries, before.module_entries);
  EXPECT_EQ(after.plan_hits, before.plan_hits);
  EXPECT_EQ(after.plan_misses, before.plan_misses);
  EXPECT_EQ(after.plan_entries, before.plan_entries);
}

TEST(Runtime, OptionsSizeThePoolAndGateTheModuleCache) {
  Runtime::Options options;
  options.threads = 2;
  options.module_cache = false;
  Runtime rt(options);
  EXPECT_EQ(rt.pool().size(), 2u);
  EXPECT_FALSE(rt.module_cache().enabled());

  // With the cache disabled the imperative path builds the identical
  // network — and interns nothing.
  const Network net = make_l_network({2, 3, 4}, rt);
  EXPECT_EQ(rt.module_cache().stats().entries, 0u);
  EXPECT_EQ(rt.module_cache().stats().misses, 0u);
  Runtime::Options cached_options;
  cached_options.module_cache = true;
  Runtime cached(cached_options);
  EXPECT_EQ(structural_hash(net),
            structural_hash(make_l_network({2, 3, 4}, cached)));
  EXPECT_GT(cached.module_cache().stats().entries, 0u);
}

TEST(Runtime, PassLevelOptionControlsCompiled) {
  Runtime rt;
  const Network net = make_l_network({2, 3, 4}, rt);
  // compiled(net) runs the default pipeline: same entry as the explicit
  // kDefault overload.
  const CachedPlan opt = rt.compiled(net);
  ASSERT_NE(opt.passes, nullptr);
  EXPECT_FALSE(opt.passes->empty());
  EXPECT_TRUE(rt.compiled(net, PassLevel::kDefault).hit);
  // The explicit kNone overload skips the pipeline and keys the cache
  // separately.
  const CachedPlan raw = rt.compiled(net, PassLevel::kNone);
  EXPECT_FALSE(raw.hit);
  EXPECT_TRUE(raw.passes->empty());
  EXPECT_EQ(rt.plan_cache().stats().misses, 2u);
  EXPECT_GE(raw.plan->gate_count(), opt.plan->gate_count());
}

TEST(Runtime, ScnetThreadsEnvSizesDefaultPools) {
  ASSERT_EQ(setenv("SCNET_THREADS", "3", 1), 0);
  EXPECT_EQ(default_thread_count(), 3u);
  // threads = 0 defers to the env var, captured when the lazy pool spins
  // up.
  Runtime rt;
  EXPECT_EQ(rt.pool().size(), 3u);
  // Malformed values fall back to hardware_concurrency.
  ASSERT_EQ(setenv("SCNET_THREADS", "not-a-number", 1), 0);
  EXPECT_EQ(default_thread_count(),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  ASSERT_EQ(unsetenv("SCNET_THREADS"), 0);
}

TEST(ThreadPoolDefaults, AbsurdThreadCountsAreClamped) {
  // SCNET_THREADS beyond the ceiling clamps (with a warning) instead of
  // trying to spawn thousands of workers.
  const char* saved = std::getenv("SCNET_THREADS");
  const std::string saved_value = saved ? saved : "";
  ::setenv("SCNET_THREADS", "80000", 1);
  EXPECT_EQ(default_thread_count(), kMaxThreadCount);
  ::setenv("SCNET_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3u);
  if (saved) {
    ::setenv("SCNET_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("SCNET_THREADS");
  }
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(Runtime, ClearCachesResetsRegistryCountersWithThePurge) {
  Runtime rt(interning());
  const Network net = make_k_network({2, 3, 4}, rt);
  (void)rt.compiled(net);
  (void)rt.compiled(net);  // plan-cache hit
  EXPECT_GT(metric(rt, "module_cache.misses"), 0u);
  EXPECT_GT(metric(rt, "plan_cache.hits"), 0u);

  rt.clear_caches();
  EXPECT_EQ(metric(rt, "module_cache.hits"), 0u);
  EXPECT_EQ(metric(rt, "module_cache.misses"), 0u);
  EXPECT_EQ(metric(rt, "module_cache.entries"), 0u);
  EXPECT_EQ(metric(rt, "plan_cache.hits"), 0u);
  EXPECT_EQ(metric(rt, "plan_cache.misses"), 0u);
  EXPECT_EQ(metric(rt, "plan_cache.entries"), 0u);
  EXPECT_EQ(rt.module_cache().stats().entries, 0u);
  EXPECT_EQ(rt.plan_cache().stats().entries, 0u);
}

TEST(Runtime, ApiOverloadsAreRuntimeScoped) {
  Runtime rt(interning());
  const Network net = make_k_network({2, 2, 3}, rt);
  (void)rt.compiled(net);
  const CacheStatsReport stats = cache_stats(rt);
  EXPECT_GT(stats.module_misses, 0u);
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.plan_entries, 1u);

  // metrics_snapshot(rt) reports this runtime's registry: the cache series
  // are present, the process-wide macro counters are not.
  bool saw_module_misses = false;
  for (const obs::MetricSample& s : metrics_snapshot(rt)) {
    if (s.name == "module_cache.misses") saw_module_misses = true;
    EXPECT_TRUE(s.name.starts_with("module_cache.") ||
                s.name.starts_with("plan_cache."))
        << s.name;
  }
  EXPECT_TRUE(saw_module_misses);

  clear_caches(rt);
  const CacheStatsReport cleared = cache_stats(rt);
  EXPECT_EQ(cleared.module_misses, 0u);
  EXPECT_EQ(cleared.plan_misses, 0u);
  EXPECT_EQ(cleared.plan_entries, 0u);
}

TEST(Runtime, ConcurrentSortersOnSeparateRuntimesMatchSequential) {
  constexpr std::size_t kWidth = 24;
  constexpr std::size_t kVectors = 64;
  std::mt19937_64 rng(7);
  std::vector<std::vector<Count>> inputs;
  inputs.reserve(kVectors);
  for (std::size_t j = 0; j < kVectors; ++j) {
    inputs.push_back(random_count_vector(rng, kWidth, 1000));
  }

  // Sequential reference through the shared runtime.
  const Sorter reference(kWidth);
  std::vector<std::vector<Count>> expected;
  expected.reserve(kVectors);
  for (const auto& in : inputs) expected.push_back(reference.sorted(in));

  // Two threads, each with a private runtime and its own Sorter, sorting
  // the same inputs concurrently. Determinism is structural, so the
  // results must be bit-identical to the sequential pass.
  std::vector<std::vector<Count>> got_a(kVectors);
  std::vector<std::vector<Count>> got_b(kVectors);
  auto worker = [&inputs](std::vector<std::vector<Count>>& out) {
    Runtime rt;
    const Sorter sorter(kWidth, rt);
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j] = sorter.sorted(inputs[j]);
    }
  };
  std::thread ta(worker, std::ref(got_a));
  std::thread tb(worker, std::ref(got_b));
  ta.join();
  tb.join();
  EXPECT_EQ(got_a, expected);
  EXPECT_EQ(got_b, expected);
}

}  // namespace
}  // namespace scn
