#include "opt/plan_cache.h"

#include <algorithm>
#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "opt/fnv.h"

namespace scn {

std::uint64_t structural_hash(const Network& net) {
  std::uint64_t h = fnv::kOffset;
  fnv::mix(h, net.width());
  fnv::mix(h, net.gate_count());
  for (const auto& layer : net.canonical_layers()) {
    fnv::mix(h, 0x4c41594552ull);  // layer separator
    for (const std::size_t gi : layer) {
      const auto ws = net.gate_wires(gi);
      fnv::mix(h, ws.size());
      for (const Wire w : ws) fnv::mix(h, static_cast<std::uint64_t>(w));
    }
  }
  for (const Wire w : net.output_order()) {
    fnv::mix(h, static_cast<std::uint64_t>(w));
  }
  return h;
}

namespace {

struct Key {
  std::uint64_t hash = 0;
  std::uint64_t width = 0;
  std::uint64_t gates = 0;

  bool operator==(const Key&) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    std::uint64_t h = k.hash;
    fnv::mix(h, k.width);
    fnv::mix(h, k.gates);
    return static_cast<std::size_t>(h);
  }
};

struct Entry {
  Key key;
  std::shared_ptr<const ExecutionPlan> plan;
};

}  // namespace

struct PlanCache::Impl {
  mutable std::mutex mu;
  std::size_t capacity;
  std::list<Entry> lru;  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;

  // Hit/miss/eviction counting goes through these pointers: local counters
  // by default, rebound to MetricsRegistry::shared() counters when the
  // cache is constructed with a metric prefix. Counter adds are relaxed
  // atomics, so no registry lock is ever taken on the lookup path.
  obs::Counter local_hits, local_misses, local_evictions;
  obs::Counter* hits = &local_hits;
  obs::Counter* misses = &local_misses;
  obs::Counter* evictions = &local_evictions;

  // Mirror of lru.size() for the entries gauge. The gauge runs under the
  // REGISTRY lock, so it must not take `mu`: the miss path compiles under
  // `mu` and its instrumentation macros take the registry lock on
  // first-use resolution (mu -> registry); a gauge locking `mu` would
  // order registry -> mu and the two snapshots could deadlock. Sampling
  // this atomic keeps the lock order acyclic. shared_ptr so the gauge
  // stays valid (reporting the last size) even if the cache is destroyed.
  std::shared_ptr<std::atomic<std::uint64_t>> entries =
      std::make_shared<std::atomic<std::uint64_t>>(0);

  explicit Impl(std::size_t cap) : capacity(std::max<std::size_t>(1, cap)) {}

  // Call with `mu` held after any lru mutation.
  void publish_entries() {
    entries->store(lru.size(), std::memory_order_relaxed);
  }
};

PlanCache::PlanCache(std::size_t capacity)
    : impl_(std::make_unique<Impl>(capacity)) {}

PlanCache::PlanCache(std::size_t capacity, const char* metric_prefix)
    : PlanCache(capacity, metric_prefix, obs::MetricsRegistry::shared()) {}

PlanCache::PlanCache(std::size_t capacity, const char* metric_prefix,
                     obs::MetricsRegistry& reg)
    : impl_(std::make_unique<Impl>(capacity)) {
  const std::string prefix(metric_prefix);
  impl_->hits = &reg.counter(prefix + ".hits");
  impl_->misses = &reg.counter(prefix + ".misses");
  impl_->evictions = &reg.counter(prefix + ".evictions");
  // Entries/capacity are sampled at snapshot time without touching the
  // cache mutex (see Impl::entries for the lock-order argument: the miss
  // path takes the registry lock under `mu`, so gauges — which run under
  // the registry lock — must never take `mu`). Capturing the shared_ptr /
  // the capacity value keeps the callbacks valid for the registry's whole
  // lifetime even if this instance is destroyed.
  reg.register_gauge(prefix + ".entries", [entries = impl_->entries] {
    return entries->load(std::memory_order_relaxed);
  });
  reg.register_gauge(prefix + ".capacity", [cap = impl_->capacity] {
    return static_cast<std::uint64_t>(cap);
  });
}

PlanCache::~PlanCache() = default;

CachedPlan PlanCache::compiled(const Network& net) {
  const Key key{structural_hash(net), net.width(), net.gate_count()};
  const std::lock_guard<std::mutex> lock(impl_->mu);
  if (const auto it = impl_->index.find(key); it != impl_->index.end()) {
    impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
    impl_->hits->add(1);
    return {it->second->plan, nullptr, true};
  }

  // Miss: lower under the lock. Compilation is O(gates + endpoints);
  // serializing it avoids duplicate work when many threads race for the
  // same network, which is the common shape (one network, many
  // evaluators).
  impl_->misses->add(1);
  impl_->lru.push_front(
      {key, std::make_shared<const ExecutionPlan>(compile_plan(net))});
  impl_->index[key] = impl_->lru.begin();
  if (impl_->lru.size() > impl_->capacity) {
    impl_->index.erase(impl_->lru.back().key);
    impl_->lru.pop_back();
    impl_->evictions->add(1);
  }
  impl_->publish_entries();
  return {impl_->lru.front().plan, nullptr, false};
}

PlanCacheStats PlanCache::stats() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  PlanCacheStats out;
  out.hits = impl_->hits->value();
  out.misses = impl_->misses->value();
  out.evictions = impl_->evictions->value();
  out.entries = impl_->lru.size();
  out.capacity = impl_->capacity;
  return out;
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  // Counters first: they are readable through the registry without `mu`,
  // so a snapshot racing this clear() may pair zeroed counters with the
  // old entries gauge (benign) but never hit totals for plans that are
  // already gone.
  impl_->hits->reset();
  impl_->misses->reset();
  impl_->evictions->reset();
  impl_->lru.clear();
  impl_->index.clear();
  impl_->publish_entries();
}

PlanCache& PlanCache::shared() {
  // Leaked: compiled_plan() call sites may race static destruction, and
  // the (also leaked) registry may be snapshotted at any point.
  static PlanCache* cache = new PlanCache(64, "plan_cache");
  return *cache;
}

CachedPlan compiled_plan(const Network& net) {
  return PlanCache::shared().compiled(net);
}

}  // namespace scn
