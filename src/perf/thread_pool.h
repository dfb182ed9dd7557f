// The fork-join pool behind the batch engine and the parallel verifier.
// ThreadPool(n) runs a parallel_for on n threads, the caller and n - 1
// workers. A call publishes one job by bumping the epoch in one atomic
// word, and threads claim chunks from that word: no allocation, lock or
// wake-up per chunk. An idle worker spins for kSpinWindow, so back-to-back
// calls find it awake, then parks (an idle pool uses no CPU). Every spin
// pauses, then yields: a thread woken onto a spinner's CPU could otherwise
// wait a whole scheduler tick.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace scn {

/// The default thread count for pools sized with `threads == 0`: the
/// SCNET_THREADS environment variable when set to a positive integer
/// (letting CI containers cap oversubscription; values above
/// kMaxThreadCount are clamped with a stderr warning), otherwise
/// hardware_concurrency, min 1 (hardware_concurrency may report 0).
/// Read per call — pools capture the value at construction.
[[nodiscard]] std::size_t default_thread_count();

/// Hard ceiling on a pool's threads: a typo like SCNET_THREADS=80000 must
/// not spawn eighty thousand workers.
inline constexpr std::size_t kMaxThreadCount = 512;

/// The threads ThreadPool(threads) runs on: 0 => default_thread_count(),
/// at most kMaxThreadCount.
[[nodiscard]] std::size_t pool_thread_count(std::size_t threads);

/// Waits until `ready()` holds, pausing and then yielding between checks.
template <typename Ready>
void spin_until(const Ready& ready) {
  while (!ready()) {
#if defined(__x86_64__) || defined(__i386__)
    for (int i = 0; i < 16; ++i) __builtin_ia32_pause();
#endif
    std::this_thread::yield();
  }
}

class ThreadPool {
 public:
  /// How long an idle worker spins for the next job before it parks.
  static constexpr std::chrono::microseconds kSpinWindow{1000};

  /// Spawns threads - 1 workers (0 => default_thread_count(); at most
  /// kMaxThreadCount threads).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins the workers, spinning or parked. No call may be in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads a parallel_for runs on: the workers plus the caller.
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Splits [0, n) into min(size(), ceil(n / grain)) contiguous chunks,
  /// the first n % chunks one item longer, and runs `body(begin, end)` on
  /// each; chunk 0 always runs on the calling thread. Returns when every
  /// chunk is done. Chunk boundaries depend only on (n, grain, size()),
  /// never on scheduling, so any per-chunk determinism the caller builds in
  /// (e.g. seeds derived from indices) is preserved. Bodies must not throw.
  /// A call made from inside a body runs its chunks inline, in order;
  /// calls from other threads take turns.
  template <typename Body>
  void parallel_for(std::size_t n, std::size_t grain, const Body& body) {
    run(n, grain, &body, [](const void* b, std::size_t begin,
                            std::size_t end) {
      (*static_cast<const Body*>(b))(begin, end);
    });
  }

  /// Process-wide pool sized by default_thread_count(), created on first
  /// use; this is the pool behind Runtime::shared(). Shared by the batch
  /// engine and the verifiers so the default runtime keeps one set of
  /// worker threads no matter how many subsystems go parallel (private
  /// Runtimes spawn their own).
  static ThreadPool& shared();

 private:
  using Fn = void (*)(const void*, std::size_t, std::size_t);
  struct Job {  // one call: chunk k is [begin(k), begin(k + 1))
    const void* body;
    Fn fn;
    std::size_t base, extra;  // the first `extra` chunks are base + 1 long
    std::size_t begin(std::size_t k) const {
      return k * base + std::min(k, extra);
    }
    void run(std::size_t k) const { fn(body, begin(k), begin(k + 1)); }
  };

  void run(std::size_t n, std::size_t grain, const void* body, Fn fn);
  bool run_chunk();
  template <typename Ready>
  void await(const Ready& ready);
  void wake_parked();
  void worker_loop(int creator_cpu);

  Job job_{};  // written by the caller before it publishes claim_
  // epoch << 32 | chunks << 16 | next unclaimed chunk.
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<std::size_t> done_{0};    // chunks finished by claimers
  std::atomic<std::size_t> parked_{0};  // threads waiting on wake_
  std::atomic<bool> stopping_{false};
  std::mutex call_mu_;  // outside callers take turns
  std::mutex park_mu_;
  std::condition_variable wake_;
  std::vector<std::thread> workers_;
};

}  // namespace scn
