#include "service/saturate.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace scn {
namespace {

using Clock = std::chrono::steady_clock;

double drive_producers(ShardManager& service, const SaturationOptions& options,
                std::vector<std::uint64_t>* values) {
  const auto width = static_cast<std::uint32_t>(service.shard_width());
  std::atomic<bool> go{false};
  std::vector<std::vector<std::uint64_t>> per_thread(options.threads);
  std::vector<std::thread> pool;
  pool.reserve(options.threads);
  for (std::size_t t = 0; t < options.threads; ++t) {
    pool.emplace_back([&, t] {
      WireSchedule wires(width, options.schedule, t);
      std::vector<std::uint64_t>& mine = per_thread[t];
      if (values != nullptr) mine.reserve(options.tokens_per_thread);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (std::uint64_t i = 0; i < options.tokens_per_thread; ++i) {
        const std::uint64_t v = service.next_on(wires.next());
        if (values != nullptr) mine.push_back(v);
      }
    });
  }
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const auto t1 = Clock::now();
  if (values != nullptr) {
    for (auto& mine : per_thread) {
      values->insert(values->end(), mine.begin(), mine.end());
    }
    std::sort(values->begin(), values->end());
  }
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

SaturationResult run_saturation(ShardManager& service,
                                const SaturationOptions& options) {
  SCNET_TRACE_SPAN("service", "run_saturation");
  SaturationResult result;
  result.tokens = options.threads * options.tokens_per_thread;
  SCNET_COUNTER_ADD("service.saturation.tokens", result.tokens);
  result.seconds = drive_producers(
      service, options, options.collect_values ? &result.values : nullptr);
  service.quiesce();
  result.linearity = service.verify_linearity();
  return result;
}

}  // namespace scn
