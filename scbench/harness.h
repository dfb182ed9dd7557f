// Measurement plumbing for the scnet benchmark: clocks, seeded generators,
// sample statistics, an in-memory span recorder, CPU pinning and the
// closed-loop client team that drives the counting workloads.
//
// Everything here sits outside the library: spans open and close around
// calls into scnet's public API, never inside it.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace scbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: every input the benchmark generates comes from one of these,
/// seeded from the --seed argument.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// FNV-1a over 64-bit words: the input hash the self-test compares.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Mean of the middle half of a sample. Unlike the median it moves
/// smoothly when the sample mixes two modes, as set-up times do on hosts
/// whose cores differ in speed from moment to moment.
inline double interquartile_mean(std::vector<double> v) {
  if (v.size() < 4) return median(std::move(v));
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// Median of a large sample of whole-nanosecond latencies, taken as the
/// mean of its central 2% so that ties on one clock tick do not make the
/// figure jump in whole nanoseconds between runs.
inline double central_median(std::vector<double> v) {
  if (v.size() < 100) return median(std::move(v));
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() * 49 / 100, hi = v.size() * 51 / 100;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// Fixed-capacity uniform sample of a stream (Algorithm R). Memory is set
/// at construction and touched up front, so peak RSS does not follow the
/// length of the run.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : buf_(capacity, 0.0), rng_(seed) {}

  void add(double x) {
    ++seen_;
    if (size_ < buf_.size()) {
      buf_[size_++] = x;
      return;
    }
    const std::uint64_t j = rng_.next() % seen_;
    if (j < buf_.size()) buf_[j] = x;
  }
  void merge_into(std::vector<double>& out) const {
    out.insert(out.end(), buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(size_));
  }
  [[nodiscard]] std::uint64_t seen() const { return seen_; }

 private:
  std::vector<double> buf_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
  Rng rng_;
};

inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans.

/// One timed call: name, start, end and the enclosing span on the same
/// thread (kNoParent for a root).
struct Span {
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
  const char* name;  // string literal
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t parent;
};

/// Keeps spans in memory, one fixed-capacity buffer per recording thread,
/// and writes them out once at the end. Spans past a buffer's capacity are
/// dropped and counted rather than grown into.
class Tracer {
 public:
  static constexpr std::size_t kSpansPerThread = std::size_t{1} << 18;

  struct Buffer {
    std::vector<Span> spans;
    std::vector<std::uint32_t> open;  // stack of open span indices
    std::uint64_t dropped = 0;
  };

  Tracer() : id_(next_id().fetch_add(1) + 1) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The calling thread's buffer, created on its first span.
  Buffer& buffer() {
    thread_local std::uint64_t owner = 0;
    thread_local Buffer* mine = nullptr;
    if (owner != id_) {
      const std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      mine = buffers_.back().get();
      mine->spans.reserve(kSpansPerThread);
      owner = id_;
    }
    return *mine;
  }

  /// Records a finished root-or-nested span whose times the caller took.
  void record(const char* name, std::int64_t start, std::int64_t end) {
    Buffer& b = buffer();
    if (b.spans.size() == kSpansPerThread) {
      ++b.dropped;
      return;
    }
    const std::uint32_t parent = b.open.empty() ? Span::kNoParent : b.open.back();
    b.spans.push_back(Span{name, start, end, parent});
  }

  /// Durations (ns) of every recorded span called `name`; with `parent`
  /// set, only those whose enclosing span is called `parent`.
  [[nodiscard]] std::vector<double> durations(
      std::string_view name, std::string_view parent = {}) const;

  struct Summary {
    std::string name;
    std::uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;  // total minus the time covered by child spans
  };
  /// Per-name totals and self times, sorted by name.
  [[nodiscard]] std::vector<Summary> summarize() const;
  [[nodiscard]] std::uint64_t span_count() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Writes every span in Chrome trace-event format. False on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  static std::atomic<std::uint64_t>& next_id() {
    static std::atomic<std::uint64_t> id{0};
    return id;
  }

  const std::uint64_t id_;  // tells a thread's cached buffer apart per tracer
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span around one call; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    Tracer::Buffer& b = tracer_->buffer();
    if (b.spans.size() == Tracer::kSpansPerThread) {
      ++b.dropped;
      tracer_ = nullptr;
      return;
    }
    const std::uint32_t parent = b.open.empty() ? Span::kNoParent : b.open.back();
    index_ = static_cast<std::uint32_t>(b.spans.size());
    b.open.push_back(index_);
    b.spans.push_back(Span{name, now_ns(), 0, parent});
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    Tracer::Buffer& b = tracer_->buffer();
    b.spans[index_].end_ns = now_ns();
    b.open.pop_back();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_ = 0;
};

// ---------------------------------------------------------------------------
// Host plumbing.

/// CPUs this process may run on, in ascending order.
inline std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(static_cast<int>(c));
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

inline void pin_current_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(cpu), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Closed-loop client team.

/// What one round of a ClientTeam produced.
struct Round {
  double seconds = 0;          // first thread start to last thread end
  std::uint64_t ops = 0;       // calls completed by all threads
  std::uint64_t errors = 0;    // calls that threw
  [[nodiscard]] double ops_per_s() const {
    return seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
  }
};

/// `threads` client threads, each pinned to its own allowed CPU, that call
/// `next()` back to back (a closed loop) in timed rounds. Every returned
/// value is kept in a preallocated per-thread buffer so the caller can
/// check the round's values at quiescence, outside the timed region. A
/// round ends at its deadline or when any thread fills its buffer. One
/// call in 16 is timed: into a latency reservoir in untraced rounds, and in
/// traced rounds one call in 1024 becomes a span named `span_name` instead.
template <class Next>
class ClientTeam {
 public:
  ClientTeam(std::size_t threads, std::size_t values_per_thread,
             std::uint64_t seed, const char* span_name, Next next)
      : next_(std::move(next)), span_name_(span_name) {
    const std::vector<int> cpus = allowed_cpus();
    for (std::size_t t = 0; t < threads; ++t) {
      clients_.push_back(std::make_unique<Client>(values_per_thread,
                                                  seed * 1000003 + t));
    }
    for (std::size_t t = 0; t < threads; ++t) {
      const int cpu = cpus[t % cpus.size()];
      clients_[t]->thread = std::thread([this, t, cpu] { body(t, cpu); });
    }
    // The first call of each thread runs alone, in thread order, so the
    // library's per-thread entry-wire cursors are assigned deterministically.
    for (std::size_t t = 0; t < threads; ++t) {
      clients_[t]->prime.store(true, std::memory_order_release);
      while (clients_[t]->prime.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
  }

  ~ClientTeam() {
    quit_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    epoch_.notify_all();
    for (auto& c : clients_) c->thread.join();
  }
  ClientTeam(const ClientTeam&) = delete;
  ClientTeam& operator=(const ClientTeam&) = delete;

  /// Runs one round of about `duration_ns`; `tracer` non-null records spans.
  Round round(std::int64_t duration_ns, Tracer* tracer) {
    tracer_ = tracer;
    stop_.store(false, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    const std::int64_t deadline = now_ns() + duration_ns;
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    epoch_.notify_all();
    while (now_ns() < deadline && !stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    stop_.store(true, std::memory_order_release);
    while (done_.load(std::memory_order_acquire) != clients_.size()) {
      std::this_thread::yield();
    }
    Round r;
    std::int64_t first = clients_[0]->start_ns, last = clients_[0]->end_ns;
    for (const auto& c : clients_) {
      first = std::min(first, c->start_ns);
      last = std::max(last, c->end_ns);
      r.ops += c->count;
      r.errors += c->round_errors;
    }
    r.seconds = static_cast<double>(last - first) * 1e-9;
    return r;
  }

  [[nodiscard]] std::size_t threads() const { return clients_.size(); }
  /// Values thread t obtained in the last round (or its priming call).
  [[nodiscard]] std::span<const std::uint64_t> values(std::size_t t) const {
    return {clients_[t]->values.data(), clients_[t]->count};
  }
  /// Calls thread t completed over all rounds, priming excluded.
  [[nodiscard]] std::uint64_t total_ops(std::size_t t) const {
    return clients_[t]->total;
  }
  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> out;
    for (const auto& c : clients_) c->latency.merge_into(out);
    return out;
  }
  [[nodiscard]] std::uint64_t latency_samples() const {
    std::uint64_t n = 0;
    for (const auto& c : clients_) n += c->latency.seen();
    return n;
  }
  /// Drops the latency samples gathered so far.
  void reset_latencies() {
    for (auto& c : clients_) c->latency = Reservoir(kLatencyCap, c->seed);
  }

 private:
  static constexpr std::size_t kLatencyCap = std::size_t{1} << 16;
  static constexpr std::uint64_t kSpanMask = 1023;  // 1 call in 1024

  struct Client {
    Client(std::size_t capacity, std::uint64_t s)
        : values(capacity, 0), latency(kLatencyCap, s), seed(s) {}
    std::vector<std::uint64_t> values;
    Reservoir latency;
    std::uint64_t seed;
    std::size_t count = 0;
    std::uint64_t total = 0;
    std::uint64_t round_errors = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::atomic<bool> prime{false};
    std::thread thread;
  };

  void body(std::size_t t, int cpu) {
    pin_current_thread(cpu);
    Client& c = *clients_[t];
    while (!c.prime.load(std::memory_order_acquire)) std::this_thread::yield();
    try {
      c.values[0] = next_();
      c.count = 1;
    } catch (...) {
      c.count = 0;
      c.round_errors = 1;
    }
    std::uint64_t seen_epoch = epoch_.load(std::memory_order_acquire);
    c.prime.store(false, std::memory_order_release);

    Rng rng(c.seed);
    for (;;) {
      // Block between rounds: idle clients must not take CPU time from
      // the set-ups and checks the main thread runs meanwhile.
      epoch_.wait(seen_epoch, std::memory_order_acquire);
      seen_epoch = epoch_.load(std::memory_order_acquire);
      if (quit_.load(std::memory_order_acquire)) return;
      Tracer* const tracer = tracer_;
      const std::size_t cap = c.values.size();
      std::size_t n = 0;
      std::uint64_t errors = 0;
      c.start_ns = now_ns();
      while (n < cap && !stop_.load(std::memory_order_relaxed)) {
        const std::uint64_t draw = rng.next();
        try {
          if ((draw & 15) == 0) {
            const std::int64_t t0 = now_ns();
            const std::uint64_t v = next_();
            const std::int64_t t1 = now_ns();
            c.values[n++] = v;
            if (tracer == nullptr) {
              c.latency.add(static_cast<double>(t1 - t0));
            } else if ((draw & kSpanMask) == 0) {
              tracer->record(span_name_, t0, t1);
            }
          } else {
            c.values[n++] = next_();
          }
        } catch (...) {
          ++errors;
        }
      }
      c.end_ns = now_ns();
      if (n == cap) stop_.store(true, std::memory_order_release);
      c.count = n;
      c.total += n;
      c.round_errors = errors;
      done_.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  Next next_;
  const char* span_name_;
  Tracer* tracer_ = nullptr;  // written before each epoch bump
  std::vector<std::unique_ptr<Client>> clients_;
  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  alignas(64) std::atomic<bool> stop_{false};
  alignas(64) std::atomic<std::size_t> done_{0};
  std::atomic<bool> quit_{false};
};

}  // namespace scbench
