// The sharded counting service: value composition, quiescence, metrics,
// and the saturation harness. The load-bearing property throughout is
// counter linearity — after quiescence the service has handed out every
// value in {0 .. N - 1} exactly once — which the composition scheme
// derives from each shard's step property plus round-robin dispatch
// (docs/service.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "api/high_level.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "service/saturate.h"
#include "service/shard_manager.h"
#include "verify/checkers.h"

namespace scn {
namespace {

std::vector<std::uint64_t> iota_values(std::uint64_t base, std::size_t n) {
  std::vector<std::uint64_t> out(n);
  std::iota(out.begin(), out.end(), base);
  return out;
}

TEST(ShardManagerTest, SingleThreadLinearity) {
  Runtime rt;
  ShardManager service(ShardManager::Options{.shards = 3}, rt);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(service.next());
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, iota_values(0, 1000));
  const auto report = service.verify_linearity();
  EXPECT_TRUE(report.ok) << report.detail;
}

TEST(ShardManagerTest, MultiThreadLinearity) {
  Runtime rt;
  ShardManager service(ShardManager::Options{.shards = 4}, rt);
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::vector<std::uint64_t>> values(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      values[t].reserve(kPerThread);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        values[t].push_back(service.next());
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  service.quiesce();

  std::vector<std::uint64_t> all;
  for (const auto& v : values) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, iota_values(0, kThreads * kPerThread));
  const auto report = service.verify_linearity();
  EXPECT_TRUE(report.ok) << report.detail;
}

TEST(ShardManagerTest, ShardsShareRoundRobin) {
  Runtime rt;
  ShardManager service(ShardManager::Options{.shards = 2}, rt);
  for (int i = 0; i < 101; ++i) (void)service.next();
  // ceil(101/2) and ceil(100/2): the step property across shards.
  std::uint64_t shard0 = 0;
  std::uint64_t shard1 = 0;
  for (const Count c : service.shard_output_counts(0)) {
    shard0 += static_cast<std::uint64_t>(c);
  }
  for (const Count c : service.shard_output_counts(1)) {
    shard1 += static_cast<std::uint64_t>(c);
  }
  EXPECT_EQ(shard0, 51u);
  EXPECT_EQ(shard1, 50u);
  EXPECT_TRUE(service.verify_linearity().ok);
}

TEST(ShardManagerTest, DispatchOffsetDisjointFirstDispatch) {
  // Two managers with different offsets land their first dispatch on
  // different shards while both stay linear: the offset moves WHICH shard
  // serves a residue class, never the value composition.
  Runtime rt;
  ShardManager a(ShardManager::Options{.shards = 3, .dispatch_offset = 0},
                 rt);
  ShardManager b(ShardManager::Options{.shards = 3, .dispatch_offset = 1},
                 rt);
  EXPECT_EQ(a.next(), 0u);
  EXPECT_EQ(b.next(), 0u);
  a.quiesce();
  b.quiesce();
  // Ticket 0 routes to shard (0 + offset) % 3.
  auto first_shard = [](const ShardManager& m) {
    for (std::size_t j = 0; j < m.shard_count(); ++j) {
      std::uint64_t total = 0;
      for (const Count c : m.shard_output_counts(j)) {
        total += static_cast<std::uint64_t>(c);
      }
      if (total > 0) return j;
    }
    return m.shard_count();
  };
  EXPECT_EQ(first_shard(a), 0u);
  EXPECT_EQ(first_shard(b), 1u);
  for (int i = 0; i < 200; ++i) {
    (void)a.next();
    (void)b.next();
  }
  a.quiesce();
  b.quiesce();
  EXPECT_TRUE(a.verify_linearity().ok);
  EXPECT_TRUE(b.verify_linearity().ok);
}

TEST(ShardManagerTest, ExtremeEntryWiresKeepValuesExact) {
  // next_on() takes any Wire: the extremes reduce mod the shard width like
  // any other entry, and the values stay exactly {0, 1, 2}.
  Runtime rt;
  ShardManager service(ShardManager::Options{.shards = 2}, rt);
  std::vector<std::uint64_t> values = {
      service.next_on(std::numeric_limits<Wire>::min()),
      service.next_on(-1),
      service.next_on(std::numeric_limits<Wire>::max())};
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, iota_values(0, 3));
  const auto report = service.verify_linearity();
  EXPECT_TRUE(report.ok) << report.detail;
}

TEST(ShardManagerTest, PerShardOutputsKeepStepProperty) {
  Runtime rt;
  ShardManager service(ShardManager::Options{.shards = 2}, rt);
  for (int i = 0; i < 777; ++i) (void)service.next();
  for (std::size_t j = 0; j < service.shard_count(); ++j) {
    EXPECT_TRUE(is_exact_step_output(service.shard_output_counts(j)))
        << "shard " << j;
  }
}

TEST(ShardManagerTest, RejectsBadOptions) {
  Runtime rt;
  EXPECT_THROW(ShardManager(ShardManager::Options{.shards = 0}, rt),
               std::invalid_argument);
  EXPECT_THROW(ShardManager(
                   ShardManager::Options{.shards = 2, .factors = {2, 1}}, rt),
               std::invalid_argument);
}

TEST(ShardManagerTest, MetricsPublishIntoHomeRegistry) {
  Runtime rt;
  ShardManager service(ShardManager::Options{.shards = 2}, rt);
  for (int i = 0; i < 10; ++i) (void)service.next();
  EXPECT_EQ(rt.metrics().value("service.tokens"), 10u);
  EXPECT_EQ(rt.metrics().value("service.shard0.tokens"), 5u);
  EXPECT_EQ(rt.metrics().value("service.shard1.tokens"), 5u);
  // Each shard's private runtime carries its own series too.
  EXPECT_EQ(service.shard_runtime(0).metrics().value("service.shard.tokens"),
            5u);
}

obs::MetricKind kind_of(const obs::MetricsRegistry& registry,
                        const std::string& name) {
  for (const obs::MetricSample& s : registry.snapshot()) {
    if (s.name == name) return s.kind;
  }
  ADD_FAILURE() << name << " is not registered";
  return obs::MetricKind::kCounter;
}

TEST(ShardManagerTest, TokenGaugesAreExact) {
  // The token series are gauges over total() and the shards' exit counts,
  // so they read exact values without any per-token counter.
  Runtime rt;
  ShardManager service(ShardManager::Options{.shards = 3}, rt);
  for (int i = 0; i < 3001; ++i) (void)service.next();
  EXPECT_EQ(rt.metrics().value("service.tokens"), 3001u);
  EXPECT_EQ(rt.metrics().value("service.shard0.tokens"), 1001u);
  EXPECT_EQ(rt.metrics().value("service.shard1.tokens"), 1000u);
  EXPECT_EQ(rt.metrics().value("service.shard2.tokens"), 1000u);
  for (std::size_t j = 0; j < service.shard_count(); ++j) {
    EXPECT_EQ(service.shard_runtime(j).metrics().value("service.shard.tokens"),
              service.shard_tokens(j));
    EXPECT_EQ(rt.metrics().value("service.shard" + std::to_string(j) +
                                 ".tokens"),
              service.shard_tokens(j));
  }
  EXPECT_EQ(service.total(), 3001u);
  EXPECT_EQ(kind_of(rt.metrics(), "service.tokens"), obs::MetricKind::kGauge);
  EXPECT_EQ(kind_of(rt.metrics(), "service.shard0.tokens"),
            obs::MetricKind::kGauge);
  EXPECT_EQ(kind_of(service.shard_runtime(0).metrics(), "service.shard.tokens"),
            obs::MetricKind::kGauge);
}

TEST(ShardManagerTest, TwoManagersOnOneHomeRuntimeSumTheirTokens) {
  // One registry holds one gauge per name, so managers sharing a home
  // runtime share its token series: they read the sum over both, as the
  // counters they replace did.
  Runtime rt;
  auto first = std::make_unique<ShardManager>(
      ShardManager::Options{.shards = 2, .dispatch_offset = 0}, rt);
  ShardManager second(ShardManager::Options{.shards = 3, .dispatch_offset = 0},
                      rt);
  for (int i = 0; i < 10; ++i) (void)first->next();
  for (int i = 0; i < 9; ++i) (void)second.next();
  EXPECT_EQ(rt.metrics().value("service.tokens"), 19u);
  EXPECT_EQ(rt.metrics().value("service.shard0.tokens"), 5u + 3u);
  EXPECT_EQ(rt.metrics().value("service.shard1.tokens"), 5u + 3u);
  EXPECT_EQ(rt.metrics().value("service.shard2.tokens"), 3u);
  // Destroying one keeps its share; the other keeps counting live.
  first.reset();
  EXPECT_EQ(rt.metrics().value("service.tokens"), 19u);
  for (int i = 0; i < 3; ++i) (void)second.next();
  EXPECT_EQ(rt.metrics().value("service.tokens"), 22u);
  EXPECT_EQ(rt.metrics().value("service.shard2.tokens"), 4u);
}

TEST(ShardManagerTest, HomeSnapshotAfterDestructionReadsFrozenValues) {
  // The home gauges outlive the manager: a snapshot taken after it is
  // destroyed reads the final values, not a callback into freed state.
  Runtime rt;
  {
    ShardManager service(
        ShardManager::Options{.shards = 2, .dispatch_offset = 0}, rt);
    for (int i = 0; i < 14; ++i) (void)service.next();
  }
  std::uint64_t tokens = 0, shard0 = 0, shard1 = 0;
  for (const obs::MetricSample& s : rt.metrics().snapshot()) {
    if (s.name == "service.tokens") tokens = s.value;
    if (s.name == "service.shard0.tokens") shard0 = s.value;
    if (s.name == "service.shard1.tokens") shard1 = s.value;
  }
  EXPECT_EQ(tokens, 14u);
  EXPECT_EQ(shard0, 7u);
  EXPECT_EQ(shard1, 7u);
  // A later manager on the same runtime adds to the frozen values.
  ShardManager later(ShardManager::Options{.shards = 1}, rt);
  for (int i = 0; i < 6; ++i) (void)later.next();
  EXPECT_EQ(rt.metrics().value("service.tokens"), 20u);
  EXPECT_EQ(rt.metrics().value("service.shard0.tokens"), 7u + 6u);
  EXPECT_EQ(rt.metrics().value("service.shard1.tokens"), 7u);
}

TEST(ShardManagerTest, ProbeFedRebalanceUsesMeasuredVisits) {
  // The visit probe counts per-gate traffic only when it is enabled.
  Runtime rt;
  ShardManager probed(
      ShardManager::Options{.shards = 2, .visit_probe = true}, rt);
  ShardManager plain(ShardManager::Options{.shards = 2}, rt);
  for (int i = 0; i < 200; ++i) {
    (void)probed.next();
    (void)plain.next();
  }
  const std::vector<std::uint64_t> visits = probed.shard_gate_visits(0);
  ASSERT_FALSE(visits.empty());
  EXPECT_GT(std::accumulate(visits.begin(), visits.end(), std::uint64_t{0}),
            0u);
  EXPECT_TRUE(plain.shard_gate_visits(0).empty());
}

TEST(SaturationTest, SyncCollectsExactValueRange) {
  Runtime rt;
  ShardManager service(ShardManager::Options{.shards = 2}, rt);
  SaturationOptions opts;
  opts.threads = 4;
  opts.tokens_per_thread = 1000;
  opts.collect_values = true;
  const SaturationResult res = run_saturation(service, opts);
  EXPECT_TRUE(res.linearity.ok) << res.linearity.detail;
  EXPECT_EQ(res.values, iota_values(0, 4000));
}

class SaturationScheduleTest
    : public ::testing::TestWithParam<ScheduleKind> {};

TEST_P(SaturationScheduleTest, LinearityUnderEverySchedule) {
  Runtime rt;
  ShardManager service(ShardManager::Options{.shards = 2}, rt);
  SaturationOptions opts;
  opts.threads = 4;
  opts.tokens_per_thread = 1000;
  opts.schedule.kind = GetParam();
  const SaturationResult res = run_saturation(service, opts);
  EXPECT_TRUE(res.linearity.ok) << res.linearity.detail;
  EXPECT_EQ(service.total(), 4000u);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, SaturationScheduleTest,
                         ::testing::Values(ScheduleKind::kUniform,
                                           ScheduleKind::kBursty,
                                           ScheduleKind::kSkewed,
                                           ScheduleKind::kAdversarial),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

// The CI TSan smoke: small width, 2 shards, 4 threads, step property and
// linearity checked after quiescence. Everything the race detector needs
// to see — dispatch, traversal, quiescence, verification — in one fast
// test.
TEST(ServiceSaturationSmoke, TSanShardedService) {
  Runtime rt;
  ShardManager::Options shard_opts;
  shard_opts.shards = 2;
  shard_opts.factors = {2, 2};  // width 4: small on purpose
  ShardManager service(shard_opts, rt);
  SaturationOptions opts;
  opts.threads = 4;
  opts.tokens_per_thread = 500;
  const SaturationResult res = run_saturation(service, opts);
  EXPECT_TRUE(res.linearity.ok) << res.linearity.detail;
  for (std::size_t j = 0; j < service.shard_count(); ++j) {
    EXPECT_TRUE(is_exact_step_output(service.shard_output_counts(j)));
  }
}

TEST(CountingServiceTest, HighLevelHandle) {
  Runtime rt;
  CountingService::Options opts;
  opts.shards = 2;
  CountingService svc(opts, rt);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 200; ++i) values.push_back(svc.next());
  EXPECT_EQ(svc.total(), 200u);
  EXPECT_TRUE(svc.shards().verify_linearity().ok);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, iota_values(0, 200));
}

}  // namespace
}  // namespace scn
