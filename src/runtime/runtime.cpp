#include "runtime/runtime.h"

#include <atomic>
#include <mutex>

#include "core/module.h"
#include "obs/metrics.h"
#include "opt/plan_cache.h"
#include "perf/thread_pool.h"

namespace scn {

struct Runtime::Impl {
  Options opts;
  // pool_thread_count(opts.threads) once resolved, 0 before: resolving
  // it reads the environment and asks the OS for the CPU count, which a
  // runtime that never runs a batch (a service shard's) need not pay.
  std::atomic<std::size_t> threads{0};
  bool is_shared = false;

  // Owned slots are null for shared(); the raw pointers always point at
  // the live service (owned instance or process-wide singleton).
  std::unique_ptr<obs::MetricsRegistry> owned_registry;
  obs::MetricsRegistry* registry = nullptr;
  std::unique_ptr<ModuleCache> owned_modules;
  ModuleCache* modules = nullptr;
  std::unique_ptr<PlanCache> owned_plans;
  PlanCache* plans = nullptr;

  // The pool is expensive (spawns threads), so both flavors create/fetch
  // it on first use.
  std::once_flag pool_once;
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = nullptr;
};

Runtime::Runtime() : Runtime(Options{}) {}

Runtime::Runtime(const Options& options) : impl_(std::make_unique<Impl>()) {
  impl_->opts = options;
  // Registry first: the caches' constructors register their counters and
  // gauges into it (and Impl members destroy in reverse order, so the
  // registry outlives the caches that publish through it).
  impl_->owned_registry = std::make_unique<obs::MetricsRegistry>();
  impl_->registry = impl_->owned_registry.get();
  impl_->owned_modules =
      std::make_unique<ModuleCache>("module_cache", *impl_->registry);
  impl_->modules = impl_->owned_modules.get();
  impl_->owned_plans = std::make_unique<PlanCache>(
      /*capacity=*/64, "plan_cache", *impl_->registry);
  impl_->plans = impl_->owned_plans.get();
}

Runtime::Runtime(SharedTag) : impl_(std::make_unique<Impl>()) {
  impl_->is_shared = true;
  impl_->registry = &obs::MetricsRegistry::shared();
  impl_->modules = &ModuleCache::shared();
  impl_->plans = &PlanCache::shared();
}

Runtime::~Runtime() = default;

ModuleCache& Runtime::module_cache() { return *impl_->modules; }

PlanCache& Runtime::plan_cache() { return *impl_->plans; }

obs::MetricsRegistry& Runtime::metrics() { return *impl_->registry; }

ThreadPool& Runtime::pool() {
  std::call_once(impl_->pool_once, [this] {
    if (impl_->is_shared) {
      impl_->pool = &ThreadPool::shared();
    } else {
      impl_->owned_pool = std::make_unique<ThreadPool>(threads());
      impl_->pool = impl_->owned_pool.get();
    }
  });
  return *impl_->pool;
}

std::size_t Runtime::threads() const {
  // Racing first calls resolve the same count, so either store may win.
  std::size_t n = impl_->threads.load();
  if (n == 0) {
    n = pool_thread_count(impl_->opts.threads);
    impl_->threads.store(n);
  }
  return n;
}

CachedPlan Runtime::compiled(const Network& net) {
  return impl_->plans->compiled(net);
}

CachedPlan Runtime::compiled(const Network& net, const PassOptions&) {
  return compiled(net);
}

void Runtime::clear_caches() {
  impl_->modules->clear();
  impl_->plans->clear();
}

bool Runtime::is_shared() const { return impl_->is_shared; }

Runtime& Runtime::shared() {
  // Leaked, matching the singletons it fronts: any static-destruction-time
  // caller that could legally touch ModuleCache::shared() can equally
  // touch Runtime::shared().
  static Runtime* runtime = new Runtime(SharedTag{});
  return *runtime;
}

}  // namespace scn
