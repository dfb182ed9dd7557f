#include "api/high_level.h"

#include <algorithm>

#include "baseline/batcher.h"
#include "core/family.h"
#include "core/module.h"
#include "engine/backend.h"
#include "opt/plan_cache.h"
#include "runtime/runtime.h"
#include "service/shard_manager.h"

namespace scn {
obs::MetricsSnapshot metrics_snapshot() {
  return metrics_snapshot(Runtime::shared());
}

obs::MetricsSnapshot metrics_snapshot(Runtime& rt) {
  // Touch both caches first: their constructors register the
  // module_cache.* / plan_cache.* metrics, and a snapshot taken before
  // any construction work should still list them (at zero).
  (void)rt.module_cache();
  (void)rt.plan_cache();
  return rt.metrics().snapshot();
}

CacheStatsReport cache_stats() { return cache_stats(Runtime::shared()); }

CacheStatsReport cache_stats(Runtime& rt) {
  // A runtime's caches publish through its registry (their hit/miss
  // counters ARE registry counters; entries/bytes/capacity are gauges),
  // so the report reads straight from it — one source of truth shared
  // with metrics_snapshot() and the CLI's --metrics flag.
  (void)rt.module_cache();
  (void)rt.plan_cache();
  const auto& reg = rt.metrics();
  return CacheStatsReport{
      .module_hits = reg.value("module_cache.hits"),
      .module_misses = reg.value("module_cache.misses"),
      .module_entries = static_cast<std::size_t>(
          reg.value("module_cache.entries")),
      .module_bytes = static_cast<std::size_t>(reg.value("module_cache.bytes")),
      .plan_hits = reg.value("plan_cache.hits"),
      .plan_misses = reg.value("plan_cache.misses"),
      .plan_evictions = reg.value("plan_cache.evictions"),
      .plan_entries = static_cast<std::size_t>(reg.value("plan_cache.entries")),
      .plan_capacity = static_cast<std::size_t>(
          reg.value("plan_cache.capacity")),
  };
}

void clear_caches() { clear_caches(Runtime::shared()); }

void clear_caches(Runtime& rt) { rt.clear_caches(); }

Sorter::Sorter(std::size_t width) : Sorter(width, Options{}) {}

Sorter::Sorter(std::size_t width, Runtime& rt) : Sorter(width, Options{}, rt) {}

Sorter::Sorter(std::size_t width, Options options)
    : Sorter(width, options, Runtime::shared()) {}

Sorter::Sorter(std::size_t width, Options /*options*/, Runtime& rt)
    : net_(make_batcher_network(width)) {
  const CachedPlan cached =
      rt.compiled(net_, PassOptions{.semantics = Semantics::kComparator});
  plan_ = cached.plan;
  backend_ = rt.backend();
}

const ExecutionPlan& Sorter::plan() const { return *plan_; }

void Sorter::sort(std::span<Count> values) const {
  engine::sort_ascending(*plan_, values, backend_);
}

std::vector<Count> Sorter::sorted(std::span<const Count> values) const {
  std::vector<Count> copy(values.begin(), values.end());
  sort(copy);
  return copy;
}

Counter::Counter() : Counter(Options{}) {}

Counter::Counter(Options options)
    : Counter(options, Runtime::shared()) {}

Counter::Counter(Options options, Runtime& rt)
    : impl_(std::make_unique<NetworkCounter>(
          make_network_for_width(std::max<std::size_t>(2, options.width),
                                 std::max<std::size_t>(2, options.max_balancer),
                                 NetworkKind::kL, rt))) {}

CountingService::CountingService() : CountingService(Options{}) {}

CountingService::CountingService(const Options& options)
    : CountingService(options, Runtime::shared()) {}

CountingService::CountingService(const Options& options, Runtime& rt)
    : shards_(std::make_unique<ShardManager>(
          ShardManager::Options{.shards = options.shards,
                                .factors = options.factors},
          rt)) {}

CountingService::~CountingService() = default;

std::uint64_t CountingService::next() { return shards_->next(); }

std::uint64_t CountingService::total() const { return shards_->total(); }

}  // namespace scn
