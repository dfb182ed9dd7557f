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
// Interning is the only construction path for cacheable bases: every
// constructor hands its key and its imperative `_cold` body to
// stamp_module(), which runs the body once per key (on identity wires, to
// build the template) and stamps every instantiation. Only a custom base
// factory, whose gates the key cannot name, runs its `_cold` body inline.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
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
  /// cache. Plain instances keep purely local counters.
  ModuleCache(const char* metric_prefix, obs::MetricsRegistry& registry);

  ~ModuleCache();

  ModuleCache(const ModuleCache&) = delete;
  ModuleCache& operator=(const ModuleCache&) = delete;

  /// Returns the template for `key`, invoking `build` to produce it on the
  /// first request. Thread-safe; `build` runs outside the cache lock (it
  /// recursively interns sub-modules), and a racing duplicate build keeps
  /// the first-inserted template.
  [[nodiscard]] std::shared_ptr<const Network> intern(
      const ModuleKey& key, const std::function<Network()>& build);

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

/// Interns the template for `key` and stamps it through `wires`, the
/// caller's logical input span. On the first request `cold` — the
/// module's imperative body, called as `cold(NetworkBuilder&,
/// std::span<const Wire> inputs)` and returning the output order — builds
/// the template on a fresh builder over the identity span 0..n-1
/// (sub-modules intern through the same cache). The cache is the one
/// `builder` carries (attached by a Runtime-threaded make_* entry point),
/// or the process-wide cache when none is attached.
template <typename Cold>
[[nodiscard]] std::vector<Wire> stamp_module(NetworkBuilder& builder,
                                             const ModuleKey& key,
                                             std::span<const Wire> wires,
                                             const Cold& cold) {
  ModuleCache* attached = builder.module_cache();
  ModuleCache& cache = attached != nullptr ? *attached : ModuleCache::shared();
  const auto tmpl = cache.intern(key, [&] {
    NetworkBuilder b(wires.size(), attached);
    std::vector<Wire> out = cold(b, identity_order(wires.size()));
    return std::move(b).finish(std::move(out));
  });
  return builder.stamp(*tmpl, wires);
}

/// `wires` cut into `parts` consecutive chunks of equal length.
[[nodiscard]] std::vector<std::vector<Wire>> split_wires(
    std::span<const Wire> wires, std::size_t parts);

/// The chunks concatenated in order.
[[nodiscard]] std::vector<Wire> concat_wires(
    std::span<const std::vector<Wire>> chunks);

}  // namespace scn
