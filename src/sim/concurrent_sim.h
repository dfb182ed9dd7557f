// Shared-memory concurrent execution of a balancing network.
//
// This is the deployment the counting-network literature targets: each
// balancer is a word in shared memory updated with fetch-and-add; a token is
// a thread traversing gate to gate. Contention concentrates on the balancers
// a thread visits, which is why wide-but-shallow vs narrow-but-deep
// factorizations trade off in practice (paper §1, citing Felten et al.).
//
// ConcurrentNetwork is safe for any number of threads. Balancer state is a
// 64-bit counter (no wraparound in practice); false sharing is avoided by
// padding each balancer to a cache line.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/linked_network.h"
#include "perf/hot_path.h"
#include "seq/sequence_props.h"
#include "sim/schedule.h"

namespace scn {

class ConcurrentNetwork {
 public:
  /// References `net` without owning it: the Network must outlive this
  /// object (and must not move).
  explicit ConcurrentNetwork(const Network& net);
  ConcurrentNetwork(const ConcurrentNetwork&) = delete;
  ConcurrentNetwork& operator=(const ConcurrentNetwork&) = delete;

  struct ExitEvent {
    std::size_t position;   ///< logical output position the token exits on
    std::uint64_t ticket;   ///< how many tokens exited there before this one
  };

  /// Pushes one token in on physical wire `in` and routes it to an output.
  /// The returned ticket makes Fetch&Inc counters possible: the token's
  /// counter value is position + width * ticket.
  ExitEvent traverse(Wire in);

  /// Number of tokens that have exited logical output position i so far.
  /// Only meaningful in quiescent states (no thread inside traverse()).
  [[nodiscard]] Count exits(std::size_t logical_position) const;

  /// Quiescent per-logical-output counts. Built with SCNET_CHECKED, throws
  /// std::logic_error when tokens are still in flight (see in_flight()).
  [[nodiscard]] std::vector<Count> output_counts() const;

  [[nodiscard]] const Network& network() const { return linked_.network(); }

  /// Resets all balancer and exit state (requires quiescence — enforced
  /// with a std::logic_error under SCNET_CHECKED, like output_counts()).
  /// Probe counts (if enabled) are reset too.
  void reset();

  /// Tokens currently inside traverse() (or externally marked via
  /// begin_token()). Always 0 when the library was built without
  /// SCNET_CHECKED (builder_checks_enabled() reports which one you
  /// have). In checked builds the count is striped per thread
  /// (perf/hot_path.h), so the guard adds no shared word to the hot path.
  [[nodiscard]] std::uint64_t in_flight() const;

  /// Marks an externally managed token as in flight / done, extending the
  /// quiescence guard across routers whose token lifetime spans more than
  /// one call (and letting the negative contract tests pin the guard
  /// deterministically). traverse() brackets itself with the same pair.
  /// The two calls may come from different threads. No-ops without
  /// SCNET_CHECKED.
  void begin_token();
  void end_token();

  /// Allocates per-gate visit counters and starts counting every balancer
  /// a token crosses (one extra relaxed fetch-add per hop, on a padded
  /// line private to the probe). Off by default — the probe exists to
  /// turn the analytical `gate_traffic()` predictions of
  /// perf/contention_model.h into measured-vs-predicted comparisons
  /// (docs/observability.md). Requires quiescence.
  void enable_visit_probe();
  [[nodiscard]] bool visit_probe_enabled() const {
    return visit_counts_ != nullptr;
  }

  /// Tokens that crossed each gate since the probe was enabled (or last
  /// reset), indexed by gate. Empty when the probe is off. Only meaningful
  /// in quiescent states.
  [[nodiscard]] std::vector<std::uint64_t> gate_visits() const;

 private:
  struct alignas(64) PaddedCounter {
    std::atomic<std::uint64_t> value{0};
  };

  void check_quiescent(const char* what) const;

  LinkedNetwork linked_;
  std::unique_ptr<PaddedCounter[]> gate_state_;
  std::unique_ptr<PaddedCounter[]> exit_counts_;  // by logical position
  std::unique_ptr<PaddedCounter[]> visit_counts_;  // null until enabled
  StripedCount in_flight_;  // only advanced under SCNET_CHECKED
};

struct ConcurrentRunResult {
  std::vector<Count> outputs;  ///< quiescent counts by logical position
  double seconds = 0.0;        ///< wall time of the parallel phase
  std::uint64_t tokens = 0;    ///< total tokens routed
  /// Aggregate throughput in tokens per second.
  [[nodiscard]] double tokens_per_second() const {
    return seconds > 0 ? static_cast<double>(tokens) / seconds : 0.0;
  }
};

/// Spawns `threads` threads, each routing `tokens_per_thread` tokens whose
/// input wires are chosen pseudo-randomly per thread (seeded, reproducible),
/// then reports quiescent outputs and wall time.
[[nodiscard]] ConcurrentRunResult run_concurrent(ConcurrentNetwork& net,
                                                 std::size_t threads,
                                                 std::uint64_t tokens_per_thread,
                                                 std::uint64_t seed = 1);

/// Schedule-driven variant: each thread's entry wires come from a
/// WireSchedule (sim/schedule.h) built over (width, params, thread), so
/// bursty / skewed / adversarial arrival patterns are reproducible. The
/// uniform kind with the same seed is statistically equivalent to the
/// overload above (same generator family, independent streams).
[[nodiscard]] ConcurrentRunResult run_concurrent(
    ConcurrentNetwork& net, std::size_t threads,
    std::uint64_t tokens_per_thread, const ScheduleParams& schedule);

}  // namespace scn
