#include "perf/thread_pool.h"

#include <sched.h>

#include <cstdio>
#include <cstdlib>

namespace scn {
namespace {

constexpr unsigned kEpochShift = 32;
constexpr unsigned kChunksShift = 16;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kChunksShift) - 1;
using Clock = std::chrono::steady_clock;

// Set on workers and on a caller running chunks: a nested call runs inline.
thread_local bool t_in_body = false;

// A new thread starts on its creator's CPU, and the scheduler rarely moves
// a thread that keeps running: left there, the workers can share the
// caller's CPU through seconds of back-to-back calls. This moves the calling
// thread off `cpu`, unless its affinity allows no other.
void leave_cpu(int cpu) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t others = allowed;
  CPU_CLR(static_cast<std::size_t>(cpu), &others);
  sched_setaffinity(0, sizeof others, &others);  // migrates the thread now
  sched_setaffinity(0, sizeof allowed, &allowed);
}

}  // namespace

std::size_t default_thread_count() {
  if (const char* v = std::getenv("SCNET_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(v, &end, 10);
    if (end != v && *end == '\0' && parsed > 0) {
      if (parsed > kMaxThreadCount) {
        std::fprintf(stderr,
                     "SCNET_THREADS=%lu exceeds the %zu-thread ceiling; "
                     "clamping\n",
                     parsed, kMaxThreadCount);
        return kMaxThreadCount;
      }
      return static_cast<std::size_t>(parsed);
    }
  }
  // hardware_concurrency() is allowed to return 0 ("unknown"); floor at 1.
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t pool_thread_count(std::size_t threads) {
  // The ceiling keeps a job's chunk count within its 16-bit field.
  return std::min(threads == 0 ? default_thread_count() : threads,
                  kMaxThreadCount);
}

ThreadPool::ThreadPool(std::size_t threads) {
  threads = pool_thread_count(threads);
  const int creator = sched_getcpu();
  for (std::size_t t = 1; t < threads; ++t) {
    workers_.emplace_back([this, creator] { worker_loop(creator); });
  }
}

ThreadPool::~ThreadPool() {
  stopping_.store(true);
  wake_parked();
  for (auto& w : workers_) w.join();
}

// Wakers store seq_cst before this seq_cst load; await() raises parked_
// before it checks: this sees the thread parked or it sees the store.
void ThreadPool::wake_parked() {
  if (parked_.load() == 0) return;
  const std::lock_guard<std::mutex> lock(park_mu_);
  wake_.notify_all();
}

// Spins for kSpinWindow, then parks until `ready` (seq_cst loads) holds.
template <typename Ready>
void ThreadPool::await(const Ready& ready) {
  const auto deadline = Clock::now() + kSpinWindow;
  spin_until([&] { return ready() || Clock::now() >= deadline; });
  if (ready()) return;
  std::unique_lock<std::mutex> lock(park_mu_);
  parked_.fetch_add(1);
  wake_.wait(lock, ready);
  parked_.fetch_sub(1);
}

bool ThreadPool::run_chunk() {
  std::uint64_t c = claim_.load(std::memory_order_relaxed);
  do {
    if ((c & kIndexMask) >= ((c >> kChunksShift) & kIndexMask)) return false;
  } while (!claim_.compare_exchange_weak(c, c + 1, std::memory_order_acquire,
                                         std::memory_order_relaxed));
  // The job cannot change before this chunk counts as done.
  job_.run(c & kIndexMask);
  if (done_.fetch_add(1) + 2 == ((c >> kChunksShift) & kIndexMask)) {
    wake_parked();  // the caller may have parked waiting for this chunk
  }
  return true;
}

void ThreadPool::worker_loop(int creator_cpu) {
  leave_cpu(creator_cpu);
  t_in_body = true;
  std::uint64_t seen = 0;
  const auto fresh = [&] {
    return claim_.load() >> kEpochShift != seen || stopping_.load();
  };
  for (await(fresh); !stopping_.load(); await(fresh)) {
    seen = claim_.load(std::memory_order_relaxed) >> kEpochShift;
    while (run_chunk()) continue;
  }
}

void ThreadPool::run(std::size_t n, std::size_t grain, const void* body,
                     Fn fn) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t chunks = std::min(size(), (n + grain - 1) / grain);
  const Job job{body, fn, n / chunks, n % chunks};
  if (chunks == 1 || t_in_body) {
    for (std::size_t k = 0; k < chunks; ++k) job.run(k);
    return;
  }
  const std::lock_guard<std::mutex> turn(call_mu_);
  job_ = job;
  done_.store(0, std::memory_order_relaxed);
  const std::uint64_t epoch = (claim_.load() >> kEpochShift) + 1;
  // Chunk 0 is the caller's, so claiming starts at 1.
  claim_.store((epoch << kEpochShift) | (chunks << kChunksShift) | 1);
  wake_parked();
  t_in_body = true;
  job.run(0);
  while (run_chunk()) continue;
  t_in_body = false;
  await([&] { return done_.load() == chunks - 1; });
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace scn
