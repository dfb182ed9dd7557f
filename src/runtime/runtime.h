// The runtime/service layer: one context object owning every cross-cutting
// service the stack consumes — the module cache (construction templates),
// the plan cache (compiled ExecutionPlans), the metrics registry the two
// caches publish through, a thread pool handle, and the options that used
// to be read from the environment at scattered call sites.
//
// Before this layer existed those services were process-wide singletons
// (`ModuleCache::shared()`, `PlanCache::shared()`, `MetricsRegistry::
// shared()`, `ThreadPool::shared()`), so every tenant in a process
// contended on the same cache locks and reported into the same metric
// namespace — the wide-vs-narrow contention trade-off the paper studies
// for balancers (§1), reproduced inside our own infrastructure. A Runtime
// makes the scope explicit:
//
//   * `Runtime::shared()` IS those singletons — every API that takes a
//     defaulted `Runtime&` behaves exactly as before when the argument is
//     omitted, and existing call sites compile unchanged;
//   * a privately constructed `Runtime` owns fresh instances of all four
//     services. Two private Runtimes share no cache entries, no metric
//     counters, and no pool threads, so per-tenant sharding, parallel
//     sessions, and order-independent benchmarking (bench_construct's
//     warm-vs-cold phases) fall out of construction.
//
// Threading model: a Runtime's services are individually thread-safe (the
// caches and registry lock internally, the pool is a pool), so one Runtime
// may be used from many threads. Accessors hand out stable references for
// the Runtime's lifetime. The only compile-time-scoped exception is the
// hot-path instrumentation macros (SCNET_COUNTER_ADD and friends), which
// resolve against the process-wide registry through function-local statics
// — see docs/observability.md for the per-runtime vs process-wide metric
// split.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "opt/plan_cache.h"

namespace scn {

class ModuleCache;
class ThreadPool;

namespace obs {
class MetricsRegistry;
}  // namespace obs

class Runtime {
 public:
  /// Construction-time configuration. Every field has an "inherit the
  /// environment" default, so `Runtime{}` behaves like a fresh copy of the
  /// process defaults: SCNET_MODULE_CACHE is read ONCE here, and
  /// SCNET_THREADS once on the first threads() or pool() call; neither is
  /// read per call.
  struct Options {
    /// Threads a pool() call runs on, counting the caller: pool() spawns
    /// threads - 1 workers. 0 defers to SCNET_THREADS, then
    /// hardware_concurrency (see default_thread_count()).
    std::size_t threads = 0;
    /// LRU capacity of this runtime's PlanCache.
    std::size_t plan_cache_capacity = 64;
    /// Whether the module cache interns templates (false => the imperative
    /// construction path). nullopt => SCNET_MODULE_CACHE != "0".
    std::optional<bool> module_cache;
  };

  /// A fully private runtime: fresh caches, a fresh metrics registry the
  /// caches publish into (under the usual `module_cache.*` / `plan_cache.*`
  /// names), and a lazily spawned private pool.
  Runtime();
  explicit Runtime(const Options& options);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// The interning table the src/core constructors stamp against when this
  /// runtime is threaded through their `make_*` entry points.
  [[nodiscard]] ModuleCache& module_cache();
  /// The compiled-plan cache compiled() routes through.
  [[nodiscard]] PlanCache& plan_cache();
  /// The registry this runtime's caches publish statistics into. For
  /// shared() this is the process-wide registry (which additionally holds
  /// the macro-instrumented engine/sim counters).
  [[nodiscard]] obs::MetricsRegistry& metrics();
  /// This runtime's worker pool, created on first use (shared() hands out
  /// the process-wide pool).
  [[nodiscard]] ThreadPool& pool();
  /// The threads pool() runs a call on, counting the caller: Options::
  /// threads resolved as ThreadPool resolves it, on the first call of this
  /// or pool(), without spawning the pool. engine::sort_batch uses the
  /// pool only when this exceeds 1.
  [[nodiscard]] std::size_t threads() const;

  /// Kept for scbench: defined, with the rest of its shim, in the
  /// commented block of engine/backend.h.
  [[nodiscard]] auto backend() const;

  /// Compiles (or fetches) the plan for `net`, as constructed, through
  /// THIS runtime's plan cache. Runtime-scoped equivalent of
  /// compiled_plan().
  [[nodiscard]] CachedPlan compiled(const Network& net);
  /// Forwards to compiled(net) for scbench, which still passes options.
  [[nodiscard]] CachedPlan compiled(const Network& net, const PassOptions&);

  /// Empties both caches and resets their registry counters with each
  /// purge (a metrics snapshot racing this never observes hits for entries
  /// that no longer exist). Runtime-scoped equivalent of clear_caches().
  void clear_caches();

  /// True for the shared() instance (whose services are the process-wide
  /// singletons), false for privately constructed runtimes.
  [[nodiscard]] bool is_shared() const;

  /// The default runtime: its services ARE `ModuleCache::shared()`,
  /// `PlanCache::shared()`, `obs::MetricsRegistry::shared()` and
  /// `ThreadPool::shared()`, so pre-runtime call sites and runtime-threaded
  /// ones observe one coherent state. Leaked, like the singletons it wraps.
  static Runtime& shared();

 private:
  struct Impl;
  struct SharedTag {};
  explicit Runtime(SharedTag);

  std::unique_ptr<Impl> impl_;
};

}  // namespace scn
