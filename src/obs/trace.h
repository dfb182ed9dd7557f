// Observability layer, part 2: the scoped-span tracer.
//
// A process-wide event buffer that exports Chrome trace-event JSON
// (load the file at chrome://tracing or https://ui.perfetto.dev). The
// tracer is OFF by default; `ScopedSpan` checks `Tracer::active()` with
// one relaxed load on construction, so an inactive tracer costs a single
// branch per span even in SCNET_OBS=ON builds. When SCNET_OBS=OFF the
// SCNET_TRACE_* macros expand to nothing and instrumented code compiles
// exactly as before (the classes themselves stay available so
// TraceSession works from any build — it just records no spans from
// compiled-out call sites).
//
// Span hierarchy and category names are documented in
// docs/observability.md. All events are "complete" events (ph:"X") with
// microsecond timestamps relative to the session start.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace scn::obs {

/// One recorded complete-event. Timestamps are steady-clock nanoseconds
/// relative to the trace start (exported as microseconds).
struct TraceEvent {
  std::string name;
  std::string category;
  std::string args_json;  // empty, or a JSON object literal ("{...}")
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint32_t thread_id = 0;  // small per-process id, not the OS tid
};

/// Thread-safe, process-wide trace-event collector.
///
/// Recording is mutex-protected: spans close at most a few times per
/// layer / call / run, so the lock is far off the per-gate hot path.
/// The buffer is capped (events beyond the cap are counted as dropped,
/// not stored) so a forgotten session cannot grow without bound.
class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// True between start() and stop(). One relaxed atomic load.
  [[nodiscard]] bool active() const {
    return active_.load(std::memory_order_relaxed);
  }

  /// Clears the buffer and begins recording; t=0 is the call instant.
  void start();
  void stop();
  void clear();

  /// Records a complete event with an externally measured interval
  /// (e.g. the engine's per-layer walk times). `start_ns` is relative to
  /// the tracer's start instant; use now_ns() to sample it. No-op when
  /// inactive.
  void record_complete(std::string_view name, std::string_view category,
                       std::uint64_t start_ns, std::uint64_t duration_ns,
                       std::string_view args_json = {});

  /// Nanoseconds since start() on the steady clock (0 when inactive).
  [[nodiscard]] std::uint64_t now_ns() const;

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::uint64_t dropped_count() const;

  /// Serializes the buffer as a Chrome trace: an object with a
  /// "traceEvents" array of ph:"X" events (ts/dur in microseconds,
  /// fractional — nanosecond precision is preserved).
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Writes chrome_trace_json() to `path`. Returns false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

  static Tracer& shared();

  /// Buffer cap; see class comment.
  static constexpr std::size_t kMaxEvents = 1u << 20;

 private:
  std::atomic<bool> active_{false};
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// RAII span: samples the clock on construction and records a complete
/// event on destruction. Arms itself only if the shared tracer is
/// active *at construction* — a span that straddles stop() is dropped.
class ScopedSpan {
 public:
  ScopedSpan(std::string_view category, std::string_view name,
             std::string args_json = {})
      : armed_(Tracer::shared().active()) {
    if (armed_) {
      name_ = name;
      category_ = category;
      args_json_ = std::move(args_json);
      start_ns_ = Tracer::shared().now_ns();
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (armed_) {
      Tracer& tracer = Tracer::shared();
      tracer.record_complete(name_, category_, start_ns_,
                             tracer.now_ns() - start_ns_, args_json_);
    }
  }

  /// Attaches/replaces the args object recorded with the span (a JSON
  /// object literal), e.g. set after the work when the value is an
  /// outcome. No-op if the span is not armed.
  void set_args_json(std::string args_json) {
    if (armed_) args_json_ = std::move(args_json);
  }

  [[nodiscard]] bool armed() const { return armed_; }

 private:
  bool armed_;
  std::string name_;
  std::string category_;
  std::string args_json_;
  std::uint64_t start_ns_ = 0;
};

/// RAII trace capture: starts the shared tracer on construction, stops
/// it and writes the Chrome JSON to `path` on destruction (or on an
/// explicit finish(), which additionally reports whether the write
/// succeeded). The CLI's `--trace out.json` and api/high_level.h
/// re-export use this directly.
class TraceSession {
 public:
  explicit TraceSession(std::string path) : path_(std::move(path)) {
    Tracer::shared().start();
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  ~TraceSession() { finish(); }

  /// Stops recording and writes the trace file. Idempotent — the first
  /// call does the work, later calls (including the destructor's) return
  /// the recorded outcome. Returns false if the file could not be
  /// written (bad path, I/O error).
  bool finish() {
    if (!finished_) {
      finished_ = true;
      Tracer::shared().stop();
      ok_ = Tracer::shared().write_chrome_trace(path_);
    }
    return ok_;
  }

  /// Outcome of the write; false until finish() has run.
  [[nodiscard]] bool ok() const { return ok_; }

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  bool finished_ = false;
  bool ok_ = false;
};

}  // namespace scn::obs

// Span macros — compiled out with SCNET_OBS=OFF, same switch as the
// metric macros in obs/metrics.h.
#define SCNET_OBS_SPAN_VAR2_(line) scnet_obs_span_##line
#define SCNET_OBS_SPAN_VAR_(line) SCNET_OBS_SPAN_VAR2_(line)

#if defined(SCNET_OBS) && SCNET_OBS
#define SCNET_TRACE_SPAN(category, name) \
  ::scn::obs::ScopedSpan SCNET_OBS_SPAN_VAR_(__LINE__)(category, name)
#define SCNET_TRACE_SPAN_ARGS(category, name, args) \
  ::scn::obs::ScopedSpan SCNET_OBS_SPAN_VAR_(__LINE__)(category, name, args)
#define SCNET_TRACE_COMPLETE(name, category, start_ns, dur_ns, args)       \
  do {                                                                     \
    if (::scn::obs::Tracer::shared().active()) {                           \
      ::scn::obs::Tracer::shared().record_complete(name, category,         \
                                                   start_ns, dur_ns, args); \
    }                                                                      \
  } while (0)
#else
#define SCNET_TRACE_SPAN(category, name) static_cast<void>(0)
#define SCNET_TRACE_SPAN_ARGS(category, name, args) static_cast<void>(0)
#define SCNET_TRACE_COMPLETE(name, category, start_ns, dur_ns, args) \
  static_cast<void>(0)
#endif
