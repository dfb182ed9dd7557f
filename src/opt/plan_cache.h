// Canonical structural hashing + an LRU cache of compiled ExecutionPlans.
//
// Repeated evaluation of the same network — verifier sweeps, CLI batch
// mode, benchmark loops, every Sorter of a given width — used to re-run
// the pass pipeline and re-lower the plan each time. The cache keys a
// compiled (and pass-optimized) plan on the network's canonical structural
// hash plus the pipeline configuration, so the second and later lookups
// cost one O(gates) hash instead of a full optimize + compile.
//
// The hash is canonical over the relayer pass's normal form: gates are
// folded layer-major, ordered within each layer by minimum wire, so two
// structurally identical networks hash identically no matter what order
// their builders appended independent gates in. Keys also carry width and
// gate count; a residual 64-bit collision between distinct networks is
// possible in principle and accepted (the cache is an optimization layer —
// callers needing proof-grade identity compare serializations).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/execution_plan.h"
#include "net/network.h"
#include "opt/pass.h"

namespace scn {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Order-canonical FNV-1a over (width, layer-major min-wire-sorted gate
/// stream, output order). Invariant under within-layer gate reordering.
[[nodiscard]] std::uint64_t structural_hash(const Network& net);

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
};

/// A cached compilation: the plan, the pass provenance that produced it,
/// and whether this particular lookup hit. Plans are shared_ptr so
/// eviction never invalidates a caller still holding one.
struct CachedPlan {
  std::shared_ptr<const ExecutionPlan> plan;
  std::shared_ptr<const std::vector<PassStats>> passes;
  bool hit = false;
};

class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 64);

  /// As above, but publishes this instance's statistics through `registry`
  /// under `<metric_prefix>.hits` / `.misses` / `.evictions` (counters) and
  /// `.entries` / `.capacity` (gauges). The registry must outlive the
  /// cache. The two-argument overload binds to the process-wide registry
  /// (used by shared()); Runtime instances pass their own registry so each
  /// runtime's numbers stay in its own namespace. Plain instances (tests)
  /// keep purely local counters.
  PlanCache(std::size_t capacity, const char* metric_prefix,
            obs::MetricsRegistry& registry);
  PlanCache(std::size_t capacity, const char* metric_prefix);

  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the compiled plan for `net` after the `level` pipeline under
  /// `opts`, compiling (and caching) on miss. Thread-safe. The plan is the
  /// same under every engine backend, so callers pick the backend at
  /// dispatch time (Runtime::backend()), not here.
  [[nodiscard]] CachedPlan compiled(const Network& net, PassLevel level,
                                    const PassOptions& opts = {});

  [[nodiscard]] PlanCacheStats stats() const;

  /// Empties the cache. Counter resets precede the purge and the entries
  /// gauge publication so a snapshot racing a clear() never reports hits
  /// for plans that no longer exist.
  void clear();

  /// The process-wide cache (the one behind Runtime::shared()) used by the
  /// routed consumers when no runtime is threaded through (Sorter,
  /// network_sort_ascending, verify_counting_parallel, the CLI).
  static PlanCache& shared();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Shorthand for PlanCache::shared().compiled(net, level, opts).
[[nodiscard]] CachedPlan compiled_plan(const Network& net, PassLevel level,
                                       const PassOptions& opts = {});

}  // namespace scn
