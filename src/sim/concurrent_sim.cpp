#include "sim/concurrent_sim.h"

#include <cassert>
#include <chrono>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace scn {

ConcurrentNetwork::ConcurrentNetwork(const Network& net)
    : linked_(net),
      gate_state_(std::make_unique<PaddedCounter[]>(net.gate_count())),
      exit_counts_(std::make_unique<PaddedCounter[]>(net.width())) {}

// The quiescence guard: reset() and output_counts() are only valid with no
// token inside traverse(). Checked builds track an in-flight count, striped
// per thread so that it touches no line other threads write; release
// builds compile the tracking out.
void ConcurrentNetwork::begin_token() {
#ifdef SCNET_CHECKED
  in_flight_.increment();
#endif
}

void ConcurrentNetwork::end_token() {
#ifdef SCNET_CHECKED
  in_flight_.decrement();
#endif
}

std::uint64_t ConcurrentNetwork::in_flight() const { return in_flight_.sum(); }

void ConcurrentNetwork::check_quiescent(const char* what) const {
#ifdef SCNET_CHECKED
  const std::uint64_t pending = in_flight();
  if (pending != 0) {
    throw std::logic_error(std::string(what) +
                           " requires quiescence: " +
                           std::to_string(pending) + " token(s) in flight");
  }
#else
  (void)what;
#endif
}

ConcurrentNetwork::ExitEvent ConcurrentNetwork::traverse(Wire in) {
  begin_token();
  const Network& net = linked_.network();
  std::int32_t gate = linked_.entry_gate(in);
  Wire wire = in;
  // Raw pointer hoisted out of the loop: the probe branch is one
  // well-predicted test per hop when disabled (the common case).
  PaddedCounter* const probe = visit_counts_.get();
  // Balancer toggles and exit tickets are relaxed: a token's slot and
  // ticket are unique because each fetch-add is atomic, in any order, and
  // no token reads data another published through a balancer. Quiescent
  // readers (output_counts(), reset(), the service's composition checks)
  // are ordered after every traversal by the guard's release decrement
  // and acquire sum, or by a thread join.
  while (gate != LinkedNetwork::kExit) {
    const auto g = static_cast<std::size_t>(gate);
    const std::uint32_t p = net.gates()[g].width;
    if (probe != nullptr) {
      probe[g].value.fetch_add(1, std::memory_order_relaxed);
    }
    const std::uint64_t ticket =
        gate_state_[g].value.fetch_add(1, std::memory_order_relaxed);
    const auto slot = static_cast<std::size_t>(reduce_mod(ticket, p));
    wire = linked_.slot_wire(g, slot);
    gate = linked_.next_gate(g, slot);
  }
  const std::size_t pos = net.output_position(wire);
  const std::uint64_t ticket =
      exit_counts_[pos].value.fetch_add(1, std::memory_order_relaxed);
  end_token();
  return {pos, ticket};
}

Count ConcurrentNetwork::exits(std::size_t logical_position) const {
  return static_cast<Count>(
      exit_counts_[logical_position].value.load(std::memory_order_acquire));
}

std::vector<Count> ConcurrentNetwork::output_counts() const {
  check_quiescent("output_counts()");
  std::vector<Count> out(network().width());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = exits(i);
  return out;
}

void ConcurrentNetwork::reset() {
  check_quiescent("reset()");
  for (std::size_t g = 0; g < network().gate_count(); ++g) {
    gate_state_[g].value.store(0, std::memory_order_relaxed);
    if (visit_counts_ != nullptr) {
      visit_counts_[g].value.store(0, std::memory_order_relaxed);
    }
  }
  for (std::size_t w = 0; w < network().width(); ++w) {
    exit_counts_[w].value.store(0, std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void ConcurrentNetwork::enable_visit_probe() {
  if (visit_counts_ == nullptr) {
    visit_counts_ =
        std::make_unique<PaddedCounter[]>(network().gate_count());
  }
}

std::vector<std::uint64_t> ConcurrentNetwork::gate_visits() const {
  if (visit_counts_ == nullptr) return {};
  std::vector<std::uint64_t> out(network().gate_count());
  for (std::size_t g = 0; g < out.size(); ++g) {
    out[g] = visit_counts_[g].value.load(std::memory_order_acquire);
  }
  return out;
}

namespace {

// Spawns `threads` threads that each route `tokens_per_thread` tokens, then
// reports the quiescent outputs and the wall time of the parallel phase.
// Thread t draws its entry wires from make_wires(width, t), a callable
// built on that thread before the start flag drops, so it is not timed.
template <typename MakeWires>
ConcurrentRunResult run_threads(ConcurrentNetwork& net, std::size_t threads,
                                std::uint64_t tokens_per_thread,
                                const MakeWires& make_wires) {
  assert(threads >= 1);
  // Instrumented here, at the run boundary, rather than inside traverse():
  // a shared counter touched once per token from every thread would be
  // exactly the contention hot spot this simulator exists to measure.
  SCNET_COUNTER_ADD("sim.concurrent.tokens", tokens_per_thread * threads);
  SCNET_TRACE_SPAN("sim", "run_concurrent");
  const auto width = static_cast<std::uint32_t>(net.network().width());
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto next_wire = make_wires(width, t);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (std::uint64_t i = 0; i < tokens_per_thread; ++i) {
        net.traverse(next_wire());
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const auto t1 = std::chrono::steady_clock::now();

  ConcurrentRunResult result;
  result.outputs = net.output_counts();
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.tokens = tokens_per_thread * threads;
  return result;
}

}  // namespace

ConcurrentRunResult run_concurrent(ConcurrentNetwork& net, std::size_t threads,
                                   std::uint64_t tokens_per_thread,
                                   std::uint64_t seed) {
  const auto uniform = [&](std::uint32_t width, std::size_t t) {
    return [rng = std::mt19937_64(seed + 0x9E3779B97F4A7C15ull * (t + 1)),
            wire = std::uniform_int_distribution<std::uint32_t>(
                0, width - 1)]() mutable {
      return static_cast<Wire>(wire(rng));
    };
  };
  return run_threads(net, threads, tokens_per_thread, uniform);
}

ConcurrentRunResult run_concurrent(ConcurrentNetwork& net, std::size_t threads,
                                   std::uint64_t tokens_per_thread,
                                   const ScheduleParams& schedule) {
  const auto scheduled = [&](std::uint32_t width, std::size_t t) {
    return [wires = WireSchedule(width, schedule, t)]() mutable {
      return wires.next();
    };
  };
  return run_threads(net, threads, tokens_per_thread, scheduled);
}

}  // namespace scn

