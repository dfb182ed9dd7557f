// Helpers for the per-token hot path of the counting routers
// (ConcurrentNetwork::traverse, ShardManager::next_on, NetworkCounter).
//
// The paper's case for counting networks (§1) is that no single word sees
// every token. The routers' own bookkeeping must not undo that, so:
//
//   * StripedCount — an in-flight count spread over a few cache lines.
//     increment()/decrement() touch only the calling thread's line; the
//     quiescence checks, which are rare, sum every line.
//   * reduce_mod   — x mod m as a mask when m is a power of two, for the
//     balancer slot and the shard/wire choice on every token.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace scn {

/// x mod m (m >= 1). The divisors on the token path — balancer widths,
/// network widths, the active-shard count — are powers of two in every
/// default configuration, where the mask costs one cycle and a 64-bit
/// division tens.
[[nodiscard]] inline std::uint64_t reduce_mod(std::uint64_t x,
                                              std::uint64_t m) {
  return std::has_single_bit(m) ? x & (m - 1) : x % m;
}

/// A non-negative count striped over kStripes cache lines. Each thread
/// takes one stripe for life (round-robin at its first use), so up to
/// kStripes threads update disjoint lines. A unit may be incremented on
/// one thread and decremented on another: stripes then wrap individually,
/// but their sum stays exact.
class StripedCount {
 public:
  /// Small on purpose: the lines are part of every router's footprint and
  /// of its construction cost.
  static constexpr std::size_t kStripes = 8;

  void increment() {
    stripes_[this_thread_stripe()].value.fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Release: whatever the caller did before decrementing happens-before
  /// a sum() that observes the decrement.
  void decrement() {
    stripes_[this_thread_stripe()].value.fetch_sub(
        1, std::memory_order_release);
  }

  /// The count, exact when no increment or decrement races the read. A
  /// racing read can see a unit's decrement without its increment (they
  /// were on different stripes); that transient deficit reads as 0, never
  /// as a wrapped negative value.
  [[nodiscard]] std::uint64_t sum() const {
    std::uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.value.load(std::memory_order_acquire);
    }
    return static_cast<std::int64_t>(total) < 0 ? 0 : total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };

  static std::size_t this_thread_stripe() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripe;
  }

  std::array<Stripe, kStripes> stripes_{};
};

}  // namespace scn
