// The sharded concurrent counting service, part 1: the shard manager.
//
// A single counting network spreads Fetch&Inc traffic over balancers, but
// its depth grows fast with width (K over n factors of 2 costs
// 1.5n^2 - 3.5n + 2 layers), so serving a width-W load with ONE network
// means every token pays that depth in fetch-adds. The paper's §1
// width-vs-contention tension reappears across networks: a service wants
// large total width for low per-word contention AND small depth for low
// per-token latency.
//
// The ShardManager resolves it by composition: N independent width-w
// counting networks (shards), each on its own private Runtime with its own
// MetricsRegistry, behind one FetchIncCounter facade. A token takes one
// dispatch ticket d from a single round-robin word, routes through shard
// (d + offset) % A (A = currently active shards; offset is a per-manager
// start shard, randomized by default so co-located services do not all
// hammer shard 0 first), and composes its value as
//
//     value = epoch_base + local * A + (d % A)
//
// where local = position + w * ticket is the shard-level NetworkCounter
// value. The SHARD index carries the offset but the value RESIDUE does
// not: shard (r + offset) % A simply hands out the values with residue r,
// so the union over shards is unchanged. Because the dispatch ticket
// distributes tokens round-robin, each residue class r covers exactly
// ceil((D - r) / A) of D dispatched tokens — the step property ACROSS
// shards — and each shard's counting network guarantees its local values
// are exactly {0..n_i-1} at quiescence. The interleaving therefore hands
// out exactly {epoch_base .. epoch_base + D - 1}: global counter
// linearity from shard-local step properties plus one fetch-add.
//
// The cost of composition is that one dispatch word (every token touches
// it once); the payoff is depth(w) + 1 fetch-adds per token instead of
// depth(N * w) — for 4 shards of K(2^4), 13 instead of 35.
//
// Elasticity: the active-shard count A changes only at epoch boundaries
// (rebalance(), which requires quiescence). The policy is fed by the
// per-gate contention probe (perf/contention_model): each epoch's
// per-shard hottest-gate traffic (measured when the probe is on,
// analytical otherwise) times the tokens it routed estimates the
// serialized fetch-adds on that shard's hottest word; the manager grows
// when the maximum estimate exceeds Options::grow_score and shrinks when
// it falls below Options::shrink_score. Each boundary resets the shards
// and re-bases values so linearity is preserved per epoch.
//
// Quiescence contract: rebalance(), shard_output_counts() and
// verify_linearity() are only valid with no in-flight next()/route()
// calls; quiesce() spin-waits for that state, and checked builds
// (SCNET_CHECKED) throw std::logic_error on violations, mirroring
// ConcurrentNetwork's own guard.
//
// Hot path: per token, the only read-modify-writes on words other threads
// also write are the dispatch ticket (on its own cache line), the shard's
// balancers and one exit counter. The in-flight count is striped per
// thread (perf/hot_path.h), and the token metrics are gauges derived from
// total() and the shards' exit counts instead of counters bumped per
// token.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "count/fetch_inc.h"
#include "perf/hot_path.h"
#include "runtime/runtime.h"
#include "sim/concurrent_sim.h"

namespace scn {

namespace obs {
class Counter;
}  // namespace obs

class ShardManager final : public FetchIncCounter {
 public:
  struct Options {
    /// Shards constructed (each a private Runtime + ConcurrentNetwork).
    std::size_t shards = 4;
    /// Shards initially active (0 => all). Active shards are always the
    /// prefix [0, A): elasticity only moves the boundary.
    std::size_t initial_active = 0;
    /// Per-shard counting network: K(factors), all factors >= 2.
    std::vector<std::size_t> factors = {2, 2, 2, 2};
    /// Enable each shard's per-gate visit probe so rebalance() scores on
    /// measured rather than analytical hottest-gate traffic.
    bool visit_probe = false;
    /// Epoch hottest-word fetch-add estimate above which rebalance()
    /// activates one more shard (when any remain).
    double grow_score = 50000.0;
    /// Estimate below which rebalance() deactivates one shard (min 1).
    double shrink_score = 500.0;
    /// Round-robin start shard: dispatch ticket d routes through shard
    /// (d + dispatch_offset) % active. nullopt => randomized per manager,
    /// so co-located services do not all lockstep their first dispatches
    /// onto shard 0. The offset shifts only the SHARD a ticket lands on —
    /// the value residue stays d % active, so linearity is untouched.
    std::optional<std::uint64_t> dispatch_offset = std::nullopt;
  };

  /// `rt` is the service's home runtime: the `service.*` metrics publish
  /// into its MetricsRegistry (so `--metrics` on the caller's runtime sees
  /// them). Each shard additionally owns a private Runtime whose registry
  /// carries that shard's `service.shard.tokens` gauge.
  ///
  /// The home gauges `service.tokens` and `service.shard<J>.tokens` sum
  /// over every manager built on `rt`: live managers are read live, and a
  /// destroyed manager contributes the values it had when destroyed.
  explicit ShardManager(const Options& options,
                        Runtime& rt = Runtime::shared());
  ~ShardManager() override;

  ShardManager(const ShardManager&) = delete;
  ShardManager& operator=(const ShardManager&) = delete;

  /// FetchIncCounter: the next globally unique value (linearity per epoch
  /// at quiescence — see the composition scheme above). Thread-safe.
  std::uint64_t next() override;
  [[nodiscard]] const char* name() const override { return "sharded"; }

  /// next() with an explicit entry wire (taken mod the shard width) —
  /// the saturation harness drives schedules through this.
  std::uint64_t next_on(Wire wire);

  /// Routes `n` anonymous increments (values discarded). The batching
  /// front end drains through this.
  void route(std::uint64_t n);

  [[nodiscard]] std::size_t shard_count() const;
  [[nodiscard]] std::size_t active_shards() const;
  /// Width of each shard's network.
  [[nodiscard]] std::size_t shard_width() const;
  /// Tokens dispatched in the current epoch.
  [[nodiscard]] std::uint64_t dispatched() const;
  /// Values handed out in earlier epochs (the current epoch's base).
  [[nodiscard]] std::uint64_t epoch_base() const;
  /// Total values handed out so far (epoch_base() + dispatched()).
  [[nodiscard]] std::uint64_t total() const;
  /// Tokens shard `shard` has routed over all epochs: the closed epochs'
  /// sum plus its network's exit counts. Exact at quiescence.
  [[nodiscard]] std::uint64_t shard_tokens(std::size_t shard) const;
  /// next()/route() calls currently executing.
  [[nodiscard]] std::uint64_t in_flight() const;
  /// True when no call is in flight (output accessors are meaningful).
  [[nodiscard]] bool quiescent() const { return in_flight() == 0; }
  /// Spin-waits until quiescent. Only sensible when producers have
  /// stopped submitting.
  void quiesce() const;

  /// Shard `shard`'s private runtime (metrics: `service.shard.tokens`).
  [[nodiscard]] Runtime& shard_runtime(std::size_t shard);
  /// The dispatch offset resolved at construction (Options::dispatch_offset
  /// or the per-manager random draw).
  [[nodiscard]] std::uint64_t dispatch_offset() const { return offset_; }
  /// Quiescent per-position exit counts of shard `shard`'s network.
  [[nodiscard]] std::vector<Count> shard_output_counts(
      std::size_t shard) const;
  /// Quiescent per-gate probe counts (empty when the probe is off).
  [[nodiscard]] std::vector<std::uint64_t> shard_gate_visits(
      std::size_t shard) const;

  struct LinearityReport {
    bool ok = false;
    std::string detail;  ///< human-readable failure description
  };
  /// Verifies, from quiescent shard state, that the current epoch handed
  /// out exactly {epoch_base .. epoch_base + D - 1}: every active shard's
  /// outputs are THE step sequence of its dispatch share ceil((D-i)/A),
  /// and inactive shards are empty. Each active shard's counts are
  /// additionally cross-checked against the count engine (the shard's
  /// compiled plan run through the backend dispatcher on its private
  /// runtime), pinning the concurrent path to the engine's propagation.
  /// Requires quiescence.
  [[nodiscard]] LinearityReport verify_linearity() const;

  struct RebalanceDecision {
    std::size_t active_before = 0;
    std::size_t active_after = 0;
    double max_score = 0.0;       ///< hottest-word estimate that decided
    std::uint64_t epoch_tokens = 0;
  };
  /// Closes the epoch: scores each active shard's contention (probe-fed
  /// when enabled), grows/shrinks the active prefix per Options, re-bases
  /// values past everything handed out, and resets the shards. Requires
  /// quiescence (std::logic_error under SCNET_CHECKED).
  RebalanceDecision rebalance();

 private:
  struct Shard;
  struct HomeLedger;

  // Read-mostly: written only at construction and inside rebalance().
  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t offset_ = 0;  // resolved dispatch offset
  std::atomic<std::size_t> active_;
  std::atomic<std::uint64_t> base_{0};  // values handed out pre-epoch
  std::shared_ptr<HomeLedger> ledger_;  // home service.*tokens gauges
  obs::Counter* rebalance_counter_;     // service.rebalances
  std::atomic<std::uint32_t> thread_seq_{0};  // once per thread

  // Written by every token: each on lines of its own.
  alignas(64) std::atomic<std::uint64_t> dispatch_{0};  // round-robin ticket
  StripedCount in_flight_;  // next()/route() calls executing
};

}  // namespace scn
