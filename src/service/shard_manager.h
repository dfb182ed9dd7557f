// The sharded concurrent counting service: the shard manager.
//
// A single counting network spreads Fetch&Inc traffic over balancers, but
// its depth grows fast with width (K over n factors of 2 costs
// 1.5n^2 - 3.5n + 2 layers), so serving a width-W load with ONE network
// means every token pays that depth in fetch-adds. The paper's §1
// width-vs-contention tension reappears across networks: a service wants
// large total width for low per-word contention AND small depth for low
// per-token latency.
//
// The ShardManager resolves it by composition: S independent width-w
// counting networks (shards), each on its own private Runtime with its own
// MetricsRegistry, behind one FetchIncCounter facade. A token takes one
// dispatch ticket d from a single round-robin word, routes through shard
// (d + offset) % S (offset is a fixed per-manager start shard), and
// composes its value as
//
//     value = local * S + (d % S)
//
// where local = position + w * ticket is the shard-level NetworkCounter
// value. The SHARD index carries the offset but the value RESIDUE does
// not: shard (r + offset) % S simply hands out the values with residue r,
// so the union over shards is unchanged. Because the dispatch ticket
// distributes tokens round-robin, each residue class r covers exactly
// ceil((D - r) / S) of D dispatched tokens — the step property ACROSS
// shards — and each shard's counting network guarantees its local values
// are exactly {0..n_i-1} at quiescence. The interleaving therefore hands
// out exactly {0 .. D - 1}: quiescent consistency of the whole counter
// from shard-local step properties plus one fetch-add.
//
// The cost of composition is that one dispatch word (every token touches
// it once); the payoff is depth(w) + 1 fetch-adds per token instead of
// depth(S * w) — for 4 shards of K(2^4), 13 instead of 35.
//
// Quiescence contract: shard_output_counts() and verify_linearity() are
// only valid with no in-flight next() calls; quiesce() spin-waits for that
// state.
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
#include <string>
#include <vector>

#include "count/fetch_inc.h"
#include "perf/hot_path.h"
#include "runtime/runtime.h"
#include "sim/concurrent_sim.h"

namespace scn {

class ShardManager final : public FetchIncCounter {
 public:
  struct Options {
    /// Shards constructed (each a private Runtime + ConcurrentNetwork).
    std::size_t shards = 4;
    /// Per-shard counting network: K(factors), all factors >= 2.
    std::vector<std::size_t> factors = {2, 2, 2, 2};
    /// Enable each shard's per-gate visit probe (shard_gate_visits()).
    bool visit_probe = false;
    /// Round-robin start shard: dispatch ticket d routes through shard
    /// (d + dispatch_offset) % shards. The offset shifts only the SHARD a
    /// ticket lands on — the value residue stays d % shards, so the values
    /// handed out are the same.
    std::uint64_t dispatch_offset = 0;
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

  /// FetchIncCounter: the next globally unique value (contiguous at
  /// quiescence — see the composition scheme above). Thread-safe.
  std::uint64_t next() override;
  [[nodiscard]] const char* name() const override { return "sharded"; }

  /// next() with an explicit entry wire (taken mod the shard width; any
  /// Wire value, negative ones included, is a valid entry) — the
  /// saturation harness drives schedules through this.
  std::uint64_t next_on(Wire wire);

  [[nodiscard]] std::size_t shard_count() const;
  /// Width of each shard's network.
  [[nodiscard]] std::size_t shard_width() const;
  /// Values handed out so far (tokens dispatched).
  [[nodiscard]] std::uint64_t total() const;
  /// Tokens shard `shard` has routed: its network's exit counts. Exact at
  /// quiescence.
  [[nodiscard]] std::uint64_t shard_tokens(std::size_t shard) const;
  /// next() calls currently executing.
  [[nodiscard]] std::uint64_t in_flight() const;
  /// True when no call is in flight (output accessors are meaningful).
  [[nodiscard]] bool quiescent() const { return in_flight() == 0; }
  /// Spin-waits until quiescent. Only sensible when producers have
  /// stopped submitting.
  void quiesce() const;

  /// Shard `shard`'s private runtime (metrics: `service.shard.tokens`).
  [[nodiscard]] Runtime& shard_runtime(std::size_t shard);
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
  /// Verifies, from quiescent shard state, that the service handed out
  /// exactly {0 .. D - 1}: every shard's outputs are THE step sequence of
  /// its dispatch share ceil((D-r)/S). Each shard's counts are
  /// additionally cross-checked against the count engine (the shard's
  /// compiled plan run through the backend dispatcher on its private
  /// runtime), pinning the concurrent path to the engine's propagation.
  /// Requires quiescence.
  [[nodiscard]] LinearityReport verify_linearity() const;

 private:
  struct Shard;
  struct HomeLedger;

  // Read-only after construction.
  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::shared_ptr<HomeLedger> ledger_;  // home service.*tokens gauges
  std::atomic<std::uint32_t> thread_seq_{0};  // once per thread

  // Written by every token: each on lines of its own.
  alignas(64) std::atomic<std::uint64_t> dispatch_{0};  // round-robin ticket
  StripedCount in_flight_;  // next() calls executing
};

}  // namespace scn
