#include "core/module.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "opt/fnv.h"

namespace scn {

const char* to_string(ModuleKind kind) {
  switch (kind) {
    case ModuleKind::kTwoMerger:
      return "T";
    case ModuleKind::kTwoMergerCapped:
      return "Tc";
    case ModuleKind::kBitonicConverter:
      return "D";
    case ModuleKind::kStaircaseMerger:
      return "S";
    case ModuleKind::kMerger:
      return "M";
    case ModuleKind::kCounting:
      return "C";
    case ModuleKind::kRNetwork:
      return "R";
  }
  return "?";
}

std::size_t network_storage_bytes(const Network& net) {
  return net.gate_count() * sizeof(Gate) +
         net.wire_endpoint_count() * sizeof(Wire) +
         net.width() * (2 * sizeof(Wire) + sizeof(std::size_t));
}

namespace {

struct KeyHash {
  std::size_t operator()(const ModuleKey& k) const {
    std::uint64_t h = fnv::kOffset;
    fnv::mix(h, static_cast<std::uint64_t>(k.kind));
    fnv::mix(h, static_cast<std::uint64_t>(k.base));
    fnv::mix(h, static_cast<std::uint64_t>(k.variant));
    fnv::mix(h, k.params.size());
    for (const std::size_t p : k.params) fnv::mix(h, p);
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

struct ModuleCache::Impl {
  mutable std::mutex mu;
  std::unordered_map<ModuleKey, std::shared_ptr<const Network>, KeyHash> table;
  std::size_t bytes = 0;

  // Local counters by default; rebound to MetricsRegistry::shared()
  // counters when constructed with a metric prefix (see plan_cache.cpp
  // for the pattern and the lock-order argument).
  obs::Counter local_hits, local_misses;
  obs::Counter* hits = &local_hits;
  obs::Counter* misses = &local_misses;

  // Gauge-visible mirrors of table.size() / bytes. Gauges run under the
  // registry lock, so they must never take `mu` (plan_cache.cpp documents
  // the full lock-order argument); they sample these atomics instead.
  // shared_ptr keeps the callbacks valid past this instance's lifetime.
  std::shared_ptr<std::atomic<std::uint64_t>> entries_gauge =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  std::shared_ptr<std::atomic<std::uint64_t>> bytes_gauge =
      std::make_shared<std::atomic<std::uint64_t>>(0);

  // Call with `mu` held after any table/bytes mutation.
  void publish_sizes() {
    entries_gauge->store(table.size(), std::memory_order_relaxed);
    bytes_gauge->store(bytes, std::memory_order_relaxed);
  }
};

ModuleCache::ModuleCache() : impl_(std::make_unique<Impl>()) {}

ModuleCache::ModuleCache(const char* metric_prefix,
                         obs::MetricsRegistry& reg)
    : impl_(std::make_unique<Impl>()) {
  const std::string prefix(metric_prefix);
  impl_->hits = &reg.counter(prefix + ".hits");
  impl_->misses = &reg.counter(prefix + ".misses");
  reg.register_gauge(prefix + ".entries", [entries = impl_->entries_gauge] {
    return entries->load(std::memory_order_relaxed);
  });
  reg.register_gauge(prefix + ".bytes", [bytes = impl_->bytes_gauge] {
    return bytes->load(std::memory_order_relaxed);
  });
}

ModuleCache::~ModuleCache() = default;

std::shared_ptr<const Network> ModuleCache::intern(
    const ModuleKey& key, const std::function<Network()>& build) {
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    if (const auto it = impl_->table.find(key); it != impl_->table.end()) {
      impl_->hits->add(1);
      return it->second;
    }
    impl_->misses->add(1);
  }
  // Build outside the lock: template construction recursively interns
  // sub-modules through this same cache.
  auto built = std::make_shared<const Network>(build());
  const std::lock_guard<std::mutex> lock(impl_->mu);
  const auto [it, inserted] = impl_->table.emplace(key, std::move(built));
  if (inserted) {
    impl_->bytes += network_storage_bytes(*it->second);
    impl_->publish_sizes();
  }
  return it->second;
}

ModuleCacheStats ModuleCache::stats() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  ModuleCacheStats out;
  out.hits = impl_->hits->value();
  out.misses = impl_->misses->value();
  out.entries = impl_->table.size();
  out.bytes = impl_->bytes;
  return out;
}

void ModuleCache::clear() {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  // Counters reset before the purge: the hit/miss counters live in the
  // registry (readable without `mu`), so a snapshot racing this clear()
  // must never pair post-purge hit totals with pre-purge contents — stale
  // entries alongside zeroed counters is benign, hits for entries that no
  // longer exist is a lie.
  impl_->hits->reset();
  impl_->misses->reset();
  impl_->table.clear();
  impl_->bytes = 0;
  impl_->publish_sizes();
}

ModuleCache& ModuleCache::shared() {
  static ModuleCache* cache =
      new ModuleCache("module_cache", obs::MetricsRegistry::shared());
  return *cache;
}

std::vector<std::vector<Wire>> split_wires(std::span<const Wire> wires,
                                           std::size_t parts) {
  const std::size_t len = wires.size() / parts;
  std::vector<std::vector<Wire>> out(parts);
  for (std::size_t i = 0; i < parts; ++i) {
    const auto chunk = wires.subspan(i * len, len);
    out[i].assign(chunk.begin(), chunk.end());
  }
  return out;
}

std::vector<Wire> concat_wires(std::span<const std::vector<Wire>> chunks) {
  std::size_t width = 0;
  for (const auto& c : chunks) width += c.size();
  std::vector<Wire> out;
  out.reserve(width);
  for (const auto& c : chunks) out.insert(out.end(), c.begin(), c.end());
  return out;
}

}  // namespace scn
