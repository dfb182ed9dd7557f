// A reusable fixed-size thread pool shared by the parallel subsystems
// (batch execution engine, parallel verifier, the sharded service).
//
// Design goals, in order:
//   1. Determinism-friendly: the pool never decides *what* work runs, only
//      *where*; callers shard work themselves (typically with parallel_for),
//      so results stay bit-identical to sequential execution.
//   2. Reuse: worker threads are created once and parked between bursts,
//      replacing the spawn-join-per-call pattern that previously dominated
//      short verification sweeps.
//   3. Simplicity: a single mutex/condvar guarding one FIFO queue. The
//      work items we run (a plan over a column shard, a verification total)
//      are coarse enough that queue overhead is noise.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace scn {

/// The default worker count for pools sized with `threads == 0`: the
/// SCNET_THREADS environment variable when set to a positive integer
/// (letting CI containers cap oversubscription; values above
/// kMaxThreadCount are clamped with a stderr warning), otherwise
/// hardware_concurrency, min 1 (hardware_concurrency may report 0).
/// Read per call — pools capture the value at construction.
[[nodiscard]] std::size_t default_thread_count();

/// Hard ceiling on SCNET_THREADS: a typo like SCNET_THREADS=80000 must
/// not spawn eighty thousand workers.
inline constexpr std::size_t kMaxThreadCount = 512;

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 => default_thread_count(): SCNET_THREADS,
  /// else hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues one task. Tasks must not throw.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

  /// Splits [0, n) into contiguous chunks of at least `grain` items and runs
  /// `body(begin, end)` over them on the pool, the calling thread included.
  /// Returns when all chunks are done. Chunk boundaries depend only on
  /// (n, grain, size()), never on scheduling, so any per-chunk determinism
  /// the caller builds in (e.g. seeds derived from indices) is preserved.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Process-wide pool sized by default_thread_count(), created on first
  /// use; this is the pool behind Runtime::shared(). Shared by the batch
  /// engine and the verifiers so the default runtime keeps one set of
  /// worker threads no matter how many subsystems go parallel (private
  /// Runtimes spawn their own).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::vector<std::function<void()>> queue_;  // FIFO via head index
  std::size_t queue_head_ = 0;
  std::size_t active_ = 0;  // tasks currently executing
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace scn
