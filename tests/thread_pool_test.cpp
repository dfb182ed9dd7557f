// The fork-join ThreadPool: chunk coverage and shape, chunk 0 on the
// caller, nested and concurrent calls, worker count, shutdown in both idle
// states, and an idle pool's CPU use.
#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "perf/thread_pool.h"

namespace scn {
namespace {

using Chunks = std::vector<std::pair<std::size_t, std::size_t>>;

// Every chunk body's (begin, end), sorted.
Chunks chunks_of(ThreadPool& pool, std::size_t n, std::size_t grain) {
  std::mutex mu;
  Chunks seen;
  pool.parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
    const std::lock_guard<std::mutex> lock(mu);
    seen.emplace_back(begin, end);
  });
  std::sort(seen.begin(), seen.end());
  return seen;
}

// True when `chunks` tile [0, n) in order with no gap or overlap.
bool tiles(const Chunks& chunks, std::size_t n) {
  std::size_t at = 0;
  for (const auto& [begin, end] : chunks) {
    if (begin != at || end <= begin) return false;
    at = end;
  }
  return at == n;
}

// The threads of this process, or 0 where /proc/self/task is unreadable.
// A joined thread can stay listed for a moment, so the count is read until
// it holds still for 10 ms.
std::size_t process_threads() {
  const auto count = [] {
    std::error_code ec;
    const std::filesystem::directory_iterator it("/proc/self/task", ec);
    return ec ? 0 : static_cast<std::size_t>(std::distance(it, {}));
  };
  std::size_t last = count();
  for (int tries = 0; tries < 100; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::size_t now = count();
    if (now == last) break;
    last = now;
  }
  return last;
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForOnTinyRangeRunsInline) {
  ThreadPool pool(8);
  int calls = 0;
  pool.parallel_for(3, 100, [&](std::size_t begin, std::size_t end) {
    ++calls;  // single chunk => runs on the calling thread, no data race
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 3u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForChunksDependOnlyOnShape) {
  // Chunk boundaries are a function of (n, grain, size()): an even split
  // into min(size, ceil(n / grain)) contiguous ranges, the first n % chunks
  // one item longer. Repeated runs must see the same boundaries.
  ThreadPool pool(4);
  const auto ten = chunks_of(pool, 10, 1);
  const Chunks want{{0, 3}, {3, 6}, {6, 8}, {8, 10}};
  EXPECT_EQ(ten, want);
  EXPECT_EQ(chunks_of(pool, 10, 1), ten);
  // The grain caps the chunk count: 10 items at grain 4 make 3 chunks.
  EXPECT_EQ(chunks_of(pool, 10, 4).size(), 3u);
  ThreadPool twin(4);
  EXPECT_EQ(chunks_of(twin, 1001, 7), chunks_of(pool, 1001, 7));
}

TEST(ThreadPool, BackToBackCallsEachCoverTheirRangeExactlyOnce) {
  // Calls arrive while the workers still spin on the previous one: every
  // call's chunks must tile its own range, in the number its shape fixes.
  ThreadPool pool(4);
  for (std::size_t call = 0; call < 10000; ++call) {
    const std::size_t n = (call * 7919) % 300;
    const std::size_t grain = 1 + call % 9;
    const Chunks chunks = chunks_of(pool, n, grain);
    ASSERT_TRUE(tiles(chunks, n)) << "call " << call;
    ASSERT_EQ(chunks.size(), std::min<std::size_t>(4, (n + grain - 1) / grain))
        << "call " << call << ", n " << n << ", grain " << grain;
  }
}

TEST(ThreadPool, ChunkZeroRunsOnTheCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (int call = 0; call < 200; ++call) {
    std::atomic<bool> on_caller{false};
    pool.parallel_for(64, 1, [&](std::size_t begin, std::size_t) {
      if (begin == 0) on_caller = std::this_thread::get_id() == caller;
    });
    ASSERT_TRUE(on_caller.load()) << "call " << call;
  }
}

TEST(ThreadPool, OutsideCallersTakeTurns) {
  // Two threads call parallel_for on one pool at once. Each call covers
  // its own range, and no body of one caller's job runs while a body of
  // the other's does.
  ThreadPool pool(4);
  std::atomic<int> running[2] = {0, 0};
  std::atomic<bool> overlapped{false};
  std::atomic<bool> torn{false};
  const auto caller = [&](int me) {
    for (int call = 0; call < 500; ++call) {
      const std::size_t n = 50 + static_cast<std::size_t>(call % 13);
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, 1, [&](std::size_t begin, std::size_t end) {
        running[me].fetch_add(1);
        if (running[1 - me].load() != 0) overlapped = true;
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        running[me].fetch_sub(1);
      });
      for (const auto& h : hits) {
        if (h.load() != 1) torn = true;
      }
    }
  };
  std::thread a(caller, 0);
  std::thread b(caller, 1);
  a.join();
  b.join();
  EXPECT_FALSE(overlapped.load());
  EXPECT_FALSE(torn.load());
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A call from inside a body runs every chunk on that body's thread, in
  // order, instead of waiting on the pool whose job the body belongs to.
  ThreadPool pool(4);
  std::atomic<int> off_thread{0};
  std::atomic<int> out_of_order{0};
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(8, 1, [&](std::size_t, std::size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    std::size_t next = 0;
    pool.parallel_for(100, 1, [&](std::size_t begin, std::size_t end) {
      if (std::this_thread::get_id() != outer) off_thread.fetch_add(1);
      if (begin != next) out_of_order.fetch_add(1);
      next = end;
      covered.fetch_add(end - begin);
    });
  });
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_EQ(out_of_order.load(), 0);
  EXPECT_EQ(covered.load(), 4u * 100u);  // one inner call per outer chunk
}

TEST(ThreadPool, SizeCountsTheCallerAndSpawnsOneWorkerFewer) {
  const std::size_t before = process_threads();
  if (before == 0) GTEST_SKIP() << "/proc/self/task not readable";
  {
    ThreadPool one(1);
    EXPECT_EQ(one.size(), 1u);
    EXPECT_EQ(process_threads(), before);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> elsewhere{0};
    one.parallel_for(1000, 1, [&](std::size_t, std::size_t) {
      if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
    });
    EXPECT_EQ(elsewhere.load(), 0);
  }
  {
    ThreadPool three(3);
    EXPECT_EQ(three.size(), 3u);
    EXPECT_EQ(process_threads(), before + 2);
  }
  EXPECT_EQ(process_threads(), before);
}

TEST(ThreadPool, DestroyedWhileWorkersSpinOrPark) {
  const auto cover = [](ThreadPool& pool) {
    const Chunks chunks = chunks_of(pool, 1000, 1);
    EXPECT_TRUE(tiles(chunks, 1000));
  };
  {
    ThreadPool never_used(4);
  }
  {
    ThreadPool spinning(4);
    cover(spinning);
  }  // the workers are still inside their spin window
  {
    ThreadPool parked(4);
    cover(parked);
    std::this_thread::sleep_for(20 * ThreadPool::kSpinWindow);
    cover(parked);  // a call wakes parked workers
    std::this_thread::sleep_for(20 * ThreadPool::kSpinWindow);
  }  // the workers are parked
}

TEST(ThreadPool, IdlePoolUsesNoCpu) {
  ThreadPool pool(4);
  const Chunks chunks = chunks_of(pool, 1000, 1);
  ASSERT_TRUE(tiles(chunks, 1000));
  const double before = process_cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double used = process_cpu_ms() - before;
  EXPECT_LT(used, 20.0) << "ms of CPU over a 200 ms idle sleep";
}

}  // namespace
}  // namespace scn
