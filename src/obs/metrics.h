// Observability layer, part 1: the metrics registry.
//
// A thread-safe registry of named metrics — one instance per Runtime
// (its caches publish into it), with shared() as the process-wide
// instance behind Runtime::shared(). Three kinds:
//
//   * Counter   — monotonically increasing 64-bit value (relaxed atomic
//                 adds; reading is a single load);
//   * gauge     — a callback sampled at snapshot time (used for values that
//                 already live elsewhere, e.g. cache entry counts — the
//                 registry samples them instead of double-counting);
//   * Histogram — log2-bucketed distribution (one atomic add per record),
//                 for latencies and batch sizes.
//
// The hot-path contract: registration (name lookup) happens ONCE per call
// site through a function-local static, after which an increment is one
// relaxed atomic add on a stable address — no locks, no lookups. The
// SCNET_COUNTER_ADD / SCNET_HISTOGRAM_RECORD macros package that pattern
// and are the compile-time kill switch: built with SCNET_OBS=OFF (CMake
// option, default ON) they expand to nothing, so instrumented hot paths
// compile to exactly the uninstrumented code. The registry CLASS is always
// compiled — the shared caches publish their statistics through it
// regardless of the switch (cache updates are not hot; see
// docs/observability.md for the full instrumentation map).
//
// Naming scheme (docs/observability.md): `<subsystem>.<object>.<event>`,
// lower_snake_case, e.g. `engine.run.batch`, `plan_cache.misses`,
// `engine.batch.lanes` (histogram names end in their unit).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace scn::obs {

/// Whether instrumentation macros were compiled in (CMake SCNET_OBS).
[[nodiscard]] constexpr bool compiled_in() {
#if defined(SCNET_OBS) && SCNET_OBS
  return true;
#else
  return false;
#endif
}

/// Monotonic counter. add() is a relaxed atomic increment — safe from any
/// thread, never a lock.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Log2-bucketed histogram: a value v lands in bucket bit_width(v), so
/// bucket b covers [2^(b-1), 2^b). Recording is two relaxed adds (count in
/// bucket, value in sum); quantiles are answered to bucket resolution
/// (upper bound of the containing bucket — a factor-2 overestimate at
/// worst), which is plenty for latency reporting.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width(uint64) in 0..64

  void record(std::uint64_t value) {
    const auto b = static_cast<std::size_t>(std::bit_width(value));
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// Smallest bucket upper bound below which at least q of the recorded
    /// values fall (q in [0, 1]). 0 when empty.
    [[nodiscard]] std::uint64_t quantile_upper_bound(double q) const;
    /// Upper bound of the highest non-empty bucket (0 when empty).
    [[nodiscard]] std::uint64_t max_upper_bound() const;
  };

  [[nodiscard]] Snapshot snapshot() const;
  void reset();

 private:
  std::atomic<std::uint64_t> sum_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(MetricKind kind);

/// One metric at snapshot time. `value` holds the counter value or the
/// sampled gauge; histograms carry their full bucket snapshot.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;
  Histogram::Snapshot histogram{};
};

/// All metrics, sorted by name (deterministic report order).
using MetricsSnapshot = std::vector<MetricSample>;

/// Thread-safe name -> metric table. Metric objects have stable addresses
/// for the registry's lifetime, so call sites cache the reference once
/// (the macros below do) and then update lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under `name`, creating it on first use.
  /// Names are one kind forever: if `name` is already bound to a gauge or
  /// histogram, a process-wide sink counter is returned instead (valid and
  /// lock-free, but not reported) rather than throwing or replacing the
  /// existing metric. Same rule for histogram().
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Registers a gauge: `read` is sampled at snapshot time. Re-registering
  /// a gauge name replaces its callback; a name already bound to a counter
  /// or histogram is left untouched (call sites may hold references into
  /// it). The callback must be thread-safe and must not call back into the
  /// registry (it runs under the registry lock).
  void register_gauge(std::string_view name,
                      std::function<std::uint64_t()> read);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Current value of the counter or gauge `name`; 0 if not registered.
  [[nodiscard]] std::uint64_t value(std::string_view name) const;

  /// Zeroes every counter and histogram. Gauges are live views and are not
  /// touched; registrations are kept (addresses stay valid).
  void reset();

  /// The process-wide registry all instrumentation reports to.
  static MetricsRegistry& shared();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace scn::obs

// ---------------------------------------------------------------------------
// Instrumentation macros — the compile-time kill switch. Built with
// SCNET_OBS=OFF these expand to a no-op statement; built ON, the first
// execution of each call site resolves the metric once into a
// function-local static and every later execution is one relaxed atomic.
// `name` must be constant for the lifetime of the call site.

#define SCNET_OBS_NAME2_(a, b) a##b
#define SCNET_OBS_NAME_(a, b) SCNET_OBS_NAME2_(a, b)

#if defined(SCNET_OBS) && SCNET_OBS
#define SCNET_COUNTER_ADD(name, delta)                                 \
  do {                                                                 \
    static ::scn::obs::Counter& SCNET_OBS_NAME_(scnet_obs_counter_,    \
                                                __LINE__) =            \
        ::scn::obs::MetricsRegistry::shared().counter(name);           \
    SCNET_OBS_NAME_(scnet_obs_counter_, __LINE__).add(delta);          \
  } while (0)
#define SCNET_HISTOGRAM_RECORD(name, value)                            \
  do {                                                                 \
    static ::scn::obs::Histogram& SCNET_OBS_NAME_(scnet_obs_hist_,     \
                                                  __LINE__) =          \
        ::scn::obs::MetricsRegistry::shared().histogram(name);         \
    SCNET_OBS_NAME_(scnet_obs_hist_, __LINE__).record(value);          \
  } while (0)
#else
#define SCNET_COUNTER_ADD(name, delta) static_cast<void>(0)
#define SCNET_HISTOGRAM_RECORD(name, value) static_cast<void>(0)
#endif
