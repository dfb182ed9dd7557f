// The sharded counting service: value composition, quiescence, the async
// front end, rebalancing, and the saturation harness. The load-bearing
// property throughout is counter linearity — after quiescence the service
// has handed out every value in {epoch_base .. epoch_base + N - 1} exactly
// once — which the composition scheme derives from each shard's step
// property plus round-robin dispatch (docs/service.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "api/high_level.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "service/front_end.h"
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

TEST(ShardManagerTest, ActiveShardsShareRoundRobin) {
  Runtime rt;
  // Pin the dispatch offset: this test asserts per-shard totals, and the
  // default offset is randomized per manager (see DispatchOffset tests).
  ShardManager service(
      ShardManager::Options{
          .shards = 4, .initial_active = 2, .dispatch_offset = 0},
      rt);
  EXPECT_EQ(service.active_shards(), 2u);
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
  // Inactive shards saw nothing.
  for (const Count c : service.shard_output_counts(2)) EXPECT_EQ(c, 0);
  for (const Count c : service.shard_output_counts(3)) EXPECT_EQ(c, 0);
  EXPECT_TRUE(service.verify_linearity().ok);
}

TEST(ShardManagerTest, DispatchOffsetDisjointFirstDispatch) {
  // Two front ends with different offsets must land their first dispatch
  // on different shards — the point of randomizing the start shard — while
  // both stay linear: the offset moves WHICH shard serves a residue class,
  // never the value composition.
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

TEST(ShardManagerTest, RandomizedOffsetStaysLinear) {
  // The default (randomized) offset must never affect correctness; the
  // accessor reports whatever was drawn.
  Runtime rt;
  ShardManager service(ShardManager::Options{.shards = 3}, rt);
  for (int i = 0; i < 301; ++i) (void)service.next();
  service.quiesce();
  const auto report = service.verify_linearity();
  EXPECT_TRUE(report.ok)
      << "offset " << service.dispatch_offset() << ": " << report.detail;
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

TEST(ShardManagerTest, TokenGaugesAreExactAcrossRebalances) {
  // The token series are gauges over total() and the shards' exit counts:
  // each epoch boundary folds the closed epoch into a per-shard base, so
  // the series keep adding up across epochs.
  Runtime rt;
  ShardManager::Options opts;
  opts.shards = 3;
  opts.initial_active = 1;
  opts.grow_score = 100.0;
  opts.shrink_score = 0.0;
  opts.dispatch_offset = 0;
  ShardManager service(opts, rt);
  for (int i = 0; i < 2000; ++i) (void)service.next();
  ASSERT_EQ(service.rebalance().active_after, 2u);
  for (int i = 0; i < 1001; ++i) (void)service.next();
  (void)service.rebalance();
  EXPECT_EQ(rt.metrics().value("service.tokens"), 3001u);
  EXPECT_EQ(rt.metrics().value("service.shard0.tokens"), 2000u + 501u);
  EXPECT_EQ(rt.metrics().value("service.shard1.tokens"), 500u);
  EXPECT_EQ(rt.metrics().value("service.shard2.tokens"), 0u);
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
    for (int i = 0; i < 10; ++i) (void)service.next();
    ASSERT_EQ(service.rebalance().active_after, 1u);  // idle: shrinks
    for (int i = 0; i < 4; ++i) (void)service.next();
  }
  std::uint64_t tokens = 0, shard0 = 0, shard1 = 0;
  for (const obs::MetricSample& s : rt.metrics().snapshot()) {
    if (s.name == "service.tokens") tokens = s.value;
    if (s.name == "service.shard0.tokens") shard0 = s.value;
    if (s.name == "service.shard1.tokens") shard1 = s.value;
  }
  EXPECT_EQ(tokens, 14u);
  EXPECT_EQ(shard0, 5u + 4u);
  EXPECT_EQ(shard1, 5u);
  // A later manager on the same runtime adds to the frozen values.
  ShardManager later(ShardManager::Options{.shards = 1}, rt);
  for (int i = 0; i < 6; ++i) (void)later.next();
  EXPECT_EQ(rt.metrics().value("service.tokens"), 20u);
  EXPECT_EQ(rt.metrics().value("service.shard0.tokens"), 9u + 6u);
  EXPECT_EQ(rt.metrics().value("service.shard1.tokens"), 5u);
}

TEST(ShardManagerTest, RebalanceGrowsUnderLoadAndShrinksWhenIdle) {
  Runtime rt;
  ShardManager::Options opts;
  opts.shards = 3;
  opts.initial_active = 1;
  opts.grow_score = 100.0;   // trip on modest traffic
  opts.shrink_score = 10.0;
  ShardManager service(opts, rt);

  for (int i = 0; i < 2000; ++i) (void)service.next();
  const auto grow = service.rebalance();
  EXPECT_EQ(grow.active_before, 1u);
  EXPECT_EQ(grow.active_after, 2u);
  EXPECT_EQ(grow.epoch_tokens, 2000u);
  EXPECT_GT(grow.max_score, opts.grow_score);
  EXPECT_EQ(rt.metrics().value("service.rebalances"), 1u);

  // Next epoch: barely any traffic => shrink back.
  for (int i = 0; i < 5; ++i) (void)service.next();
  const auto shrink = service.rebalance();
  EXPECT_EQ(shrink.active_before, 2u);
  EXPECT_EQ(shrink.active_after, 1u);
  EXPECT_EQ(rt.metrics().value("service.rebalances"), 2u);
}

TEST(ShardManagerTest, LinearityHoldsAcrossEpochBoundaries) {
  Runtime rt;
  ShardManager::Options opts;
  opts.shards = 3;
  opts.initial_active = 1;
  opts.grow_score = 100.0;
  ShardManager service(opts, rt);

  std::vector<std::uint64_t> values;
  for (int i = 0; i < 1500; ++i) values.push_back(service.next());
  (void)service.rebalance();  // grows; values re-based past epoch 0
  EXPECT_EQ(service.epoch_base(), 1500u);
  for (int i = 0; i < 1500; ++i) values.push_back(service.next());
  service.quiesce();
  const auto report = service.verify_linearity();
  EXPECT_TRUE(report.ok) << report.detail;

  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, iota_values(0, 3000));
}

TEST(ShardManagerTest, ProbeFedRebalanceUsesMeasuredVisits) {
  Runtime rt;
  ShardManager service(
      ShardManager::Options{.shards = 2, .visit_probe = true}, rt);
  for (int i = 0; i < 200; ++i) (void)service.next();
  EXPECT_FALSE(service.shard_gate_visits(0).empty());
  const auto decision = service.rebalance();
  EXPECT_GT(decision.max_score, 0.0);
  // After the epoch boundary the probe counts restart with the balancers.
  for (const std::uint64_t v : service.shard_gate_visits(0)) {
    EXPECT_EQ(v, 0u);
  }
}

TEST(TokenFrontEndTest, DrainRoutesEverything) {
  Runtime rt;
  ShardManager service(ShardManager::Options{.shards = 2}, rt);
  TokenFrontEnd front(service, rt);
  for (int i = 0; i < 300; ++i) front.enqueue(3);
  front.drain();
  EXPECT_EQ(front.enqueued(), 900u);
  EXPECT_EQ(front.drained(), 900u);
  EXPECT_EQ(service.total(), 900u);
  EXPECT_TRUE(service.verify_linearity().ok);
  EXPECT_EQ(rt.metrics().value("service.enqueued"), 900u);
  EXPECT_EQ(rt.metrics().value("service.drained"), 900u);
  EXPECT_GT(rt.metrics().value("service.batches"), 0u);
}

TEST(TokenFrontEndTest, BackpressureBoundsTheQueue) {
  Runtime rt;
  ShardManager service(ShardManager::Options{.shards = 2}, rt);
  TokenFrontEnd::Options opts;
  opts.queue_capacity = 8;
  opts.auto_drain = false;  // nothing consumes until drain()
  TokenFrontEnd front(service, rt, opts);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(front.try_enqueue(1));
  EXPECT_FALSE(front.try_enqueue(1));  // full: backpressure
  EXPECT_EQ(front.pending_slots(), 8u);
  front.drain();
  EXPECT_EQ(front.pending_slots(), 0u);
  EXPECT_TRUE(front.try_enqueue(1));
  front.drain();
  EXPECT_EQ(service.total(), 9u);
}

TEST(TokenFrontEndTest, BlockedProducerResumesWhenDrained) {
  Runtime rt;
  ShardManager service(ShardManager::Options{.shards = 2}, rt);
  TokenFrontEnd::Options opts;
  opts.queue_capacity = 4;
  opts.max_batch = 2;
  TokenFrontEnd front(service, rt, opts);
  // Far more submissions than capacity: producers must block and resume as
  // auto-scheduled drainers free slots.
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) front.enqueue(2);
    });
  }
  for (auto& th : producers) th.join();
  front.drain();
  EXPECT_EQ(front.drained(), 2000u);
  EXPECT_EQ(service.total(), 2000u);
  EXPECT_TRUE(service.verify_linearity().ok);
}

TEST(TokenFrontEndTest, ConcurrentEnqueueWithInlineNext) {
  // The facade stays coherent when async increments and synchronous next()
  // calls interleave: all values unique, linearity holds at quiescence.
  Runtime rt;
  ShardManager service(ShardManager::Options{.shards = 2}, rt);
  TokenFrontEnd front(service, rt);
  std::vector<std::uint64_t> values;
  std::thread async_producer([&] {
    for (int i = 0; i < 400; ++i) front.enqueue(1);
  });
  for (int i = 0; i < 400; ++i) values.push_back(service.next());
  async_producer.join();
  front.drain();
  EXPECT_EQ(service.total(), 800u);
  EXPECT_TRUE(service.verify_linearity().ok);
  std::sort(values.begin(), values.end());
  EXPECT_TRUE(std::adjacent_find(values.begin(), values.end()) ==
              values.end());  // inline values all distinct
}

TEST(SaturationTest, SyncCollectsExactValueRange) {
  Runtime rt;
  ShardManager service(ShardManager::Options{.shards = 2}, rt);
  SaturationOptions opts;
  opts.threads = 4;
  opts.tokens_per_thread = 1000;
  opts.collect_values = true;
  const SaturationResult res = run_saturation(service, opts, rt);
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
  const SaturationResult res = run_saturation(service, opts, rt);
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

TEST(SaturationTest, AsyncDrainsToQuiescence) {
  Runtime rt;
  ShardManager service(ShardManager::Options{.shards = 2}, rt);
  SaturationOptions opts;
  opts.threads = 4;
  opts.tokens_per_thread = 1000;
  opts.async = true;
  const SaturationResult res = run_saturation(service, opts, rt);
  EXPECT_TRUE(res.linearity.ok) << res.linearity.detail;
  EXPECT_EQ(service.total(), 4000u);
  EXPECT_EQ(rt.metrics().value("service.drained"), 4000u);
}

// The CI TSan smoke: small width, 2 shards, 4 threads, step property and
// linearity checked after quiescence. Everything the race detector needs
// to see — dispatch, traversal, batching, drain, verification — in one
// fast test.
TEST(ServiceSaturationSmoke, TSanShardedService) {
  Runtime rt;
  ShardManager::Options shard_opts;
  shard_opts.shards = 2;
  shard_opts.factors = {2, 2};  // width 4: small on purpose
  ShardManager service(shard_opts, rt);
  SaturationOptions opts;
  opts.threads = 4;
  opts.tokens_per_thread = 500;
  opts.async = true;
  const SaturationResult res = run_saturation(service, opts, rt);
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
  for (int i = 0; i < 100; ++i) values.push_back(svc.next());
  svc.increment(50);
  svc.increment(50);
  svc.drain();
  EXPECT_EQ(svc.total(), 200u);
  EXPECT_TRUE(svc.shards().verify_linearity().ok);
  std::sort(values.begin(), values.end());
  EXPECT_TRUE(std::adjacent_find(values.begin(), values.end()) ==
              values.end());
}

}  // namespace
}  // namespace scn
