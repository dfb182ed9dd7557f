// Fetch&Increment counter implementations — the application domain of
// counting networks (paper §1): a shared counter whose contention is spread
// over a network of balancers instead of a single hot word.
//
//   AtomicCounter   one fetch-and-add word (maximal contention baseline)
//   MutexCounter    lock-protected counter (pessimistic baseline)
//   NetworkCounter  counting-network counter: a token traverses the network
//                   and exits at logical position i with per-position ticket
//                   k, yielding value i + w*k. The step property guarantees
//                   that after any quiescent prefix of N increments the
//                   handed-out values are exactly {0..N-1}.
//
// Every implementation hands out each value exactly once. AtomicCounter and
// MutexCounter are linearizable; NetworkCounter is quiescently consistent:
// as the paper notes (§6), counting networks are not linearizable in
// general, but at every quiescent point the values handed out so far are
// exactly {0..N-1}.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "sim/concurrent_sim.h"

namespace scn {

/// Interface: a concurrent Fetch&Increment counter.
class FetchIncCounter {
 public:
  virtual ~FetchIncCounter() = default;
  /// Returns the next counter value (each value handed out exactly once).
  virtual std::uint64_t next() = 0;
  /// Human-readable implementation name.
  [[nodiscard]] virtual const char* name() const = 0;
};

class AtomicCounter final : public FetchIncCounter {
 public:
  std::uint64_t next() override {
    return value_.fetch_add(1, std::memory_order_acq_rel);
  }
  [[nodiscard]] const char* name() const override { return "atomic"; }

 private:
  alignas(64) std::atomic<std::uint64_t> value_{0};
};

class MutexCounter final : public FetchIncCounter {
 public:
  std::uint64_t next() override {
    const std::lock_guard<std::mutex> lock(mu_);
    return value_++;
  }
  [[nodiscard]] const char* name() const override { return "mutex"; }

 private:
  std::mutex mu_;
  std::uint64_t value_ = 0;
};

/// Counting-network-backed counter. Each thread spreads its tokens across
/// input wires round-robin from a per-thread offset, the classic
// low-contention entry scheme.
class NetworkCounter final : public FetchIncCounter {
 public:
  /// Copies `net`: the counter is self-contained. It must not be moved or
  /// copied afterwards (the concurrent state points into the stored copy).
  explicit NetworkCounter(const Network& net);
  NetworkCounter(const NetworkCounter&) = delete;
  NetworkCounter& operator=(const NetworkCounter&) = delete;

  std::uint64_t next() override;
  [[nodiscard]] const char* name() const override { return "network"; }

  [[nodiscard]] const Network& network() const { return storage_; }

 private:
  Network storage_;
  ConcurrentNetwork net_;
  std::uint32_t width_;
  std::atomic<std::uint32_t> thread_seq_{0};
};

}  // namespace scn
