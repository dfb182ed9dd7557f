// The sharded counting service: the saturation harness.
//
// One driver, used by bench/bench_service.cpp, the `scnet_cli saturate`
// command, and the service tests, so "drive millions of increments under a
// schedule and verify the counter afterwards" means the same thing
// everywhere. It spawns producer threads that call ShardManager::next_on()
// with wires from a WireSchedule (uniform / bursty / skewed / adversarial,
// reproducible per seed), ends at quiescence and reports
// ShardManager::verify_linearity() — every value handed out exactly once,
// each shard's outputs the exact step sequence — optionally cross-checked
// against the values producers actually observed.
#pragma once

#include <cstdint>
#include <vector>

#include "service/shard_manager.h"
#include "sim/schedule.h"

namespace scn {

struct SaturationOptions {
  std::size_t threads = 4;
  std::uint64_t tokens_per_thread = 10000;
  ScheduleParams schedule{};
  /// Collect every value handed out so the caller can assert
  /// sorted(values) == {0 .. tokens - 1} directly.
  bool collect_values = false;
};

struct SaturationResult {
  double seconds = 0.0;      ///< wall time of the parallel phase
  std::uint64_t tokens = 0;  ///< increments driven
  ShardManager::LinearityReport linearity;  ///< post-quiescence verdict
  /// Values observed by producers, sorted (collect_values only).
  std::vector<std::uint64_t> values;
  [[nodiscard]] double tokens_per_second() const {
    return seconds > 0 ? static_cast<double>(tokens) / seconds : 0.0;
  }
};

/// Drives `threads * tokens_per_thread` increments into `service` under the
/// configured schedule, quiesces, and verifies linearity.
[[nodiscard]] SaturationResult run_saturation(ShardManager& service,
                                              const SaturationOptions& options);

}  // namespace scn
