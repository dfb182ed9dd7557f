// High-level convenience API: one-call sorting and counting for users who
// do not want to pick constructions themselves.
//
//   Sorter sorter(1000);               // any width
//   sorter.sort(values);               // ascending, network-based
//
//   Counter counter(Counter::Options{.width = 32});
//   counter.next();                    // concurrent Fetch&Inc
//
// The Sorter runs Batcher's odd-even mergesort (baseline/batcher.h), not
// the paper's L network. In software a p-wide comparator is not one step
// but its compare-exchange (CE) expansion, so the L member's small depth
// does not make it cheaper: over w = 2..128 Batcher never runs more CEs and
// runs fewer at 93 of the 127 widths (EXPERIMENTS.md E21; at w = 64, 543
// against 1,084). The network is compiled once through the pass pipeline
// (opt/pass.h, the default level) and every sort() call walks it on a
// per-thread scratch buffer, allocating nothing. Counter wraps
// NetworkCounter over the L member (make_network_for_width): Batcher is not
// a counting network.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/cost_model.h"
#include "count/fetch_inc.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "seq/sequence_props.h"

namespace scn {

class ExecutionPlan;
class Runtime;  // runtime/runtime.h — runtime-scoped overloads below

/// Everything the default runtime's MetricsRegistry currently holds, sorted
/// by name: engine run counters, pass pipeline counters/histograms, cache
/// hit/miss counters and entry gauges, concurrent-sim token counts. See
/// docs/observability.md for the metric name inventory. Works in every
/// build: the cache metrics are always live; the hot-path engine/pass
/// counters only advance when compiled in (obs::compiled_in()).
/// The Runtime overload snapshots that runtime's registry instead — for a
/// private Runtime this holds just its own `module_cache.*` /
/// `plan_cache.*` series (hot-path macros always record into the
/// process-wide registry; see docs/observability.md).
[[nodiscard]] obs::MetricsSnapshot metrics_snapshot();
[[nodiscard]] obs::MetricsSnapshot metrics_snapshot(Runtime& rt);

/// RAII trace capture re-exported from obs/trace.h: construct with an
/// output path to start recording spans, destroy to stop and write the
/// Chrome trace (open at chrome://tracing). The CLI's `--trace out.json`
/// wraps a command in exactly this object.
using obs::TraceSession;

/// One snapshot of a runtime's two caches: the module cache (interned
/// construction templates stamped by the src/core builders) and the plan
/// cache (compiled ExecutionPlans keyed on structural hash + pipeline).
/// Mirrors ModuleCacheStats / PlanCacheStats as plain fields so this header
/// stays free of the opt/ and core/ cache headers. Since the observability
/// layer landed, every runtime's caches publish through its MetricsRegistry
/// and this report is read back from it — the registry is the single source
/// of truth (`module_cache.*` / `plan_cache.*` in metrics_snapshot()).
struct CacheStatsReport {
  std::uint64_t module_hits = 0;
  std::uint64_t module_misses = 0;
  std::size_t module_entries = 0;
  std::size_t module_bytes = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t plan_evictions = 0;
  std::size_t plan_entries = 0;
  std::size_t plan_capacity = 0;
};

/// Stats for both of a runtime's caches in one call; the no-argument form
/// reads the default runtime (the process-wide caches).
[[nodiscard]] CacheStatsReport cache_stats();
[[nodiscard]] CacheStatsReport cache_stats(Runtime& rt);

/// Empties both of a runtime's caches and resets their counters (counter
/// resets are ordered before each purge, so a racing snapshot never sees
/// hits for entries that no longer exist). The no-argument form clears the
/// default runtime's — i.e. the process-wide — caches. Plans or templates
/// still referenced by callers stay alive (both caches hand out shared
/// ownership); only the cached references are dropped.
void clear_caches();
void clear_caches(Runtime& rt);

class Sorter {
 public:
  struct Options {
    /// Largest comparator the caller can "afford" (hardware lanes, SIMD
    /// width, ...). It has no effect on the network: Batcher's 2-wide
    /// gates fit every cap.
    std::size_t max_comparator = 8;
  };

  /// The Runtime-taking overloads build and compile against `rt`'s module
  /// and plan caches; the others use Runtime::shared(). The runtime is
  /// only used during construction — the Sorter keeps the plan alive
  /// itself (and captures the runtime's engine-backend request, which
  /// sort() dispatches under), so it may outlive the runtime.
  explicit Sorter(std::size_t width);
  Sorter(std::size_t width, Runtime& rt);
  Sorter(std::size_t width, Options options);
  Sorter(std::size_t width, Options options, Runtime& rt);

  [[nodiscard]] std::size_t width() const { return net_.width(); }
  /// The network as constructed (pre-pipeline): Batcher's odd-even
  /// mergesort on width() wires.
  [[nodiscard]] const Network& network() const { return net_; }
  /// The pass-optimized compiled plan sort() executes.
  [[nodiscard]] const ExecutionPlan& plan() const;

  /// Sorts exactly width() values ascending, in place; throws
  /// std::invalid_argument for any other length. Safe to call from many
  /// threads at once, and allocation-free after a thread's first call at
  /// this width or a wider one.
  void sort(std::span<Count> values) const;

  /// Sorted copy.
  [[nodiscard]] std::vector<Count> sorted(std::span<const Count> values) const;

 private:
  Network net_;
  std::shared_ptr<const ExecutionPlan> plan_;
  EngineBackend backend_ = EngineBackend::kAuto;
};

class Counter {
 public:
  struct Options {
    std::size_t width = 16;        ///< wires (parallelism grain)
    std::size_t max_balancer = 4;  ///< widest acceptable balancer
  };

  /// As with Sorter, the Runtime overloads scope construction (module
  /// cache interning) to `rt`; the counter itself owns its network.
  Counter();
  explicit Counter(Options options);
  Counter(Options options, Runtime& rt);

  /// Concurrent Fetch&Increment (values unique; contiguous at quiescence).
  std::uint64_t next() { return impl_->next(); }

  [[nodiscard]] const Network& network() const { return impl_->network(); }

 private:
  std::unique_ptr<NetworkCounter> impl_;  // owns its network copy
};

class ShardManager;  // service/shard_manager.h

/// One-call handle over the sharded counting service (src/service/): a
/// fixed ShardManager of independent counting-network shards behind a
/// single counter facade. next() returns a globally unique value inline;
/// once calls have stopped, the values handed out are exactly
/// {0 .. total() - 1}. See docs/service.md for the value composition
/// scheme and the quiescence contract.
class CountingService {
 public:
  struct Options {
    std::size_t shards = 4;                     ///< shard networks
    std::vector<std::size_t> factors = {2, 2, 2, 2};  ///< per-shard K(...)
  };

  CountingService();
  explicit CountingService(const Options& options);
  CountingService(const Options& options, Runtime& rt);
  ~CountingService();
  CountingService(const CountingService&) = delete;
  CountingService& operator=(const CountingService&) = delete;

  /// The next globally unique counter value.
  std::uint64_t next();
  /// Values handed out so far.
  [[nodiscard]] std::uint64_t total() const;

  [[nodiscard]] ShardManager& shards() { return *shards_; }

 private:
  std::unique_ptr<ShardManager> shards_;
};

}  // namespace scn
