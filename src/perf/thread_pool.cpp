#include "perf/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>

namespace scn {

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
  // hardware_concurrency() is allowed to return 0 ("unknown"); a pool of
  // zero workers would deadlock every submit, so floor at 1.
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = default_thread_count();
  }
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock,
             [this] { return queue_head_ == queue_.size() && active_ == 0; });
  // Queue fully drained: reclaim the executed prefix.
  queue_.clear();
  queue_head_ = 0;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    task_ready_.wait(
        lock, [this] { return stopping_ || queue_head_ < queue_.size(); });
    if (queue_head_ == queue_.size()) return;  // stopping and drained
    std::function<void()> task = std::move(queue_[queue_head_]);
    ++queue_head_;
    ++active_;
    lock.unlock();
    task();
    lock.lock();
    --active_;
    if (queue_head_ == queue_.size() && active_ == 0) idle_.notify_all();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t max_chunks = (n + grain - 1) / grain;
  const std::size_t chunks = std::min(size(), max_chunks);
  if (chunks <= 1) {
    body(0, n);
    return;
  }
  // Even split into `chunks` contiguous ranges; the first n % chunks ranges
  // take one extra item. Worker tasks run chunks 1..chunks-1; the calling
  // thread runs chunk 0 so a saturated pool cannot deadlock the caller.
  struct State {
    std::atomic<std::size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<State>();
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  auto chunk_range = [base, extra](std::size_t c) {
    const std::size_t begin = c * base + std::min(c, extra);
    const std::size_t end = begin + base + (c < extra ? 1 : 0);
    return std::pair<std::size_t, std::size_t>{begin, end};
  };
  for (std::size_t c = 1; c < chunks; ++c) {
    submit([state, c, chunk_range, &body] {
      const auto [begin, end] = chunk_range(c);
      body(begin, end);
      {
        const std::lock_guard<std::mutex> lock(state->mu);
        state->done.fetch_add(1, std::memory_order_acq_rel);
      }
      state->cv.notify_all();
    });
  }
  const auto [begin0, end0] = chunk_range(0);
  body(begin0, end0);
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == chunks - 1;
  });
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace scn
