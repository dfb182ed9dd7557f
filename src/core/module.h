// Module IR for the construction layer.
//
// The paper's constructions are deeply self-similar: M(p0..pn-1)
// instantiates staircase-mergers S(r, p, q), which instantiate T and D
// blocks, and L stamps an R(p, q) base at every induction site. Building
// L(w) gate by gate therefore re-derives thousands of structurally
// identical sub-networks. A *Module* is a parameter-keyed description of
// one such sub-network: the first instantiation builds a canonical-wire
// template Network (inputs on wires 0..len-1 in logical order) and interns
// it here; every later instantiation is a NetworkBuilder::stamp — a flat
// splice of the template's gates relocated through the caller's logical
// wire span, O(gates copied) instead of O(recursive rebuild).
//
// Relocation is exact: every constructor in src/core/ is equivariant under
// wire relabeling (they route wires by *position*, never by id), so
// stamp(template, wires) emits gate-for-gate the sequence the recursive
// build would have emitted — the module_golden_test locks this against
// pre-IR serializations.
//
// The interning table is keyed by (module kind, base kind, staircase
// variant, integer params) and hashed with the same FNV discipline as the
// plan cache (opt/fnv.h). Templates are immutable and shared_ptr-held, so
// concurrent builders can stamp from the same template without copies.
// Set SCNET_MODULE_CACHE=0 (or set_enabled(false)) to disable interning
// and fall back to the original imperative construction path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/network.h"

namespace scn {

namespace obs {
class MetricsRegistry;
}  // namespace obs

enum class ModuleKind : std::uint8_t {
  kTwoMerger,         ///< T(p, q0, q1)            params {p, q0, q1}
  kTwoMergerCapped,   ///< capped T(p, q, q)       params {p, q0, q1}
  kBitonicConverter,  ///< D(p, q)                 params {p, q}
  kStaircaseMerger,   ///< S(r, p, q)              params {r, p, q}
  kMerger,            ///< M(p0..pn-1)             params {p0..pn-1}
  kCounting,          ///< C(p0..pn-1)             params {p0..pn-1}
  kRNetwork,          ///< R(p, q)                 params {p, q}
};

[[nodiscard]] const char* to_string(ModuleKind kind);

/// Identity of one construction module. `base` and `variant` are the raw
/// enum values of BaseKind / StaircaseVariant for the base-parameterized
/// kinds (kStaircaseMerger, kMerger, kCounting) and 0 elsewhere.
struct ModuleKey {
  ModuleKind kind = ModuleKind::kTwoMerger;
  std::uint8_t base = 0;
  std::uint8_t variant = 0;
  std::vector<std::size_t> params;

  bool operator==(const ModuleKey&) const = default;
};

struct ModuleCacheStats {
  std::uint64_t hits = 0;    ///< instantiations served by stamping
  std::uint64_t misses = 0;  ///< template builds
  std::size_t entries = 0;   ///< interned templates
  std::size_t bytes = 0;     ///< approximate template storage footprint
};

/// Approximate heap footprint of a network's gate/wire storage (the number
/// the module cache's `bytes` counter accumulates).
[[nodiscard]] std::size_t network_storage_bytes(const Network& net);

/// Interning table of construction templates. Each Runtime owns one;
/// shared() is the process-wide instance behind `Runtime::shared()` that
/// every constructor uses when no runtime is threaded through.
class ModuleCache {
 public:
  ModuleCache();

  /// As the default constructor, but publishes this instance's statistics
  /// through `registry` under `<metric_prefix>.hits` / `.misses` (counters)
  /// and `.entries` / `.bytes` (gauges). The registry must outlive the
  /// cache. The single-argument overload binds to the process-wide
  /// registry; plain instances keep purely local counters.
  ModuleCache(const char* metric_prefix, obs::MetricsRegistry& registry);
  explicit ModuleCache(const char* metric_prefix);

  ~ModuleCache();

  ModuleCache(const ModuleCache&) = delete;
  ModuleCache& operator=(const ModuleCache&) = delete;

  /// Returns the template for `key`, invoking `build` to produce it on the
  /// first request. Thread-safe; `build` runs outside the cache lock (it
  /// recursively interns sub-modules), and a racing duplicate build keeps
  /// the first-inserted template.
  [[nodiscard]] std::shared_ptr<const Network> intern(
      const ModuleKey& key, const std::function<Network()>& build);

  /// Interning toggle. Constructors consult this to pick the stamped vs
  /// imperative path; defaults to the SCNET_MODULE_CACHE env var (any value
  /// but "0" enables) for the shared() instance, true otherwise.
  [[nodiscard]] bool enabled() const;
  void set_enabled(bool enabled);

  /// The environment-derived default for the interning toggle:
  /// SCNET_MODULE_CACHE set to "0" disables, anything else (or unset)
  /// enables. shared() starts from this; Runtime construction resolves
  /// Options::module_cache against it.
  [[nodiscard]] static bool default_enabled();

  [[nodiscard]] ModuleCacheStats stats() const;

  /// Empties the table. Counter resets happen before the purge and the
  /// gauge publication, so a stats()/snapshot reader racing a clear() may
  /// see stale entries but never hits for entries that no longer exist.
  void clear();

  /// The process-wide cache (the one behind Runtime::shared()); used by
  /// src/core/ constructors when no runtime cache is attached.
  static ModuleCache& shared();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The interning table a construction should stamp against: the cache the
/// builder carries (attached by a Runtime-threaded make_* entry point), or
/// the process-wide cache when none is attached. Every ModuleCache::shared()
/// consult in src/core/ routes through this.
[[nodiscard]] inline ModuleCache& module_cache_for(
    const NetworkBuilder& builder) {
  ModuleCache* cache = builder.module_cache();
  return cache != nullptr ? *cache : ModuleCache::shared();
}

/// RAII guard flipping a cache's enabled flag (tests exercise the
/// imperative path in-process with this); defaults to the shared cache.
class ScopedModuleCacheToggle {
 public:
  explicit ScopedModuleCacheToggle(bool enabled,
                                   ModuleCache& cache = ModuleCache::shared())
      : cache_(cache), previous_(cache.enabled()) {
    cache_.set_enabled(enabled);
  }
  ~ScopedModuleCacheToggle() { cache_.set_enabled(previous_); }
  ScopedModuleCacheToggle(const ScopedModuleCacheToggle&) = delete;
  ScopedModuleCacheToggle& operator=(const ScopedModuleCacheToggle&) = delete;

 private:
  ModuleCache& cache_;
  bool previous_;
};

}  // namespace scn
