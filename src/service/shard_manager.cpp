#include "service/shard_manager.h"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <thread>

#include "core/k_network.h"
#include "engine/backend.h"
#include "obs/metrics.h"
#include "opt/plan_cache.h"
#include "perf/contention_model.h"
#include "verify/checkers.h"

namespace scn {
namespace {

/// Per-thread entry-wire cursor, same spreading scheme as NetworkCounter:
/// threads start on distinct wires and walk round-robin.
struct WireCursor {
  std::uint32_t value = 0;
  bool initialized = false;
};

thread_local WireCursor tls_cursor;

std::uint64_t ceil_share(std::uint64_t total, std::size_t index,
                         std::size_t active) {
  // Tokens shard `index` receives out of `total` round-robin dispatches
  // over `active` shards: ceil((total - index) / active).
  if (total <= index) return 0;
  return (total - index + active - 1) / active;
}

}  // namespace

struct ShardManager::Shard {
  explicit Shard(const std::vector<std::size_t>& factors)
      : runtime(),
        network(make_k_network(factors, runtime)),
        cnet(network),
        local_tokens(&runtime.metrics().counter("service.shard.tokens")) {}

  Runtime runtime;          // private tenant: own caches, metrics, pool
  Network network;          // owned storage — cnet references it
  ConcurrentNetwork cnet;
  obs::Counter* local_tokens;      // shard runtime's registry
  obs::Counter* home_tokens = nullptr;  // home registry, service.shardJ.*
  std::atomic<std::uint64_t> epoch_tokens{0};  // scored by rebalance()
};

ShardManager::ShardManager(const Options& options, Runtime& rt)
    : options_(options),
      active_(0),
      tokens_counter_(&rt.metrics().counter("service.tokens")),
      rebalance_counter_(&rt.metrics().counter("service.rebalances")) {
  if (options_.shards == 0) {
    throw std::invalid_argument("ShardManager needs at least one shard");
  }
  for (const std::size_t f : options_.factors) {
    if (f < 2) {
      throw std::invalid_argument("shard network factors must be >= 2");
    }
  }
  // Resolve the dispatch start shard once: explicit option, else one
  // random draw per manager (NOT per call — the offset must be stable
  // within an epoch for the residue accounting to hold).
  offset_ = options_.dispatch_offset.has_value()
                ? *options_.dispatch_offset
                : static_cast<std::uint64_t>(std::random_device{}());
  shards_.reserve(options_.shards);
  for (std::size_t j = 0; j < options_.shards; ++j) {
    auto shard = std::make_unique<Shard>(options_.factors);
    shard->home_tokens = &rt.metrics().counter(
        "service.shard" + std::to_string(j) + ".tokens");
    if (options_.visit_probe) shard->cnet.enable_visit_probe();
    shards_.push_back(std::move(shard));
  }
  const std::size_t initial =
      options_.initial_active == 0
          ? options_.shards
          : std::min(options_.initial_active, options_.shards);
  active_.store(initial, std::memory_order_release);
}

ShardManager::~ShardManager() = default;

std::uint64_t ShardManager::next() {
  if (!tls_cursor.initialized) {
    tls_cursor.value = thread_seq_.fetch_add(1, std::memory_order_relaxed);
    tls_cursor.initialized = true;
  }
  return next_on(static_cast<Wire>(tls_cursor.value++));
}

std::uint64_t ShardManager::next_on(Wire wire) {
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  // active_ and base_ only move inside rebalance(), which requires
  // in_flight_ == 0 — both are stable for the duration of this call.
  const std::size_t active = active_.load(std::memory_order_acquire);
  const std::uint64_t d = dispatch_.fetch_add(1, std::memory_order_acq_rel);
  // The offset rotates which SHARD serves ticket d; the value residue
  // stays d % active so the composed values still cover exactly
  // {base .. base + D - 1} (see the header's composition argument).
  const auto idx = static_cast<std::size_t>((d + offset_) % active);
  Shard& shard = *shards_[idx];
  const auto width = static_cast<std::uint64_t>(shard.network.width());
  const ConcurrentNetwork::ExitEvent exit = shard.cnet.traverse(
      static_cast<Wire>(static_cast<std::uint64_t>(
                            wire < 0 ? -wire : wire) %
                        width));
  const std::uint64_t local =
      static_cast<std::uint64_t>(exit.position) + width * exit.ticket;
  const std::uint64_t value = base_.load(std::memory_order_relaxed) +
                              local * active + (d % active);
  shard.epoch_tokens.fetch_add(1, std::memory_order_relaxed);
  shard.local_tokens->add(1);
  shard.home_tokens->add(1);
  tokens_counter_->add(1);
  in_flight_.fetch_sub(1, std::memory_order_release);
  return value;
}

void ShardManager::route(std::uint64_t n) {
  if (n == 0) return;
  if (!tls_cursor.initialized) {
    tls_cursor.value = thread_seq_.fetch_add(1, std::memory_order_relaxed);
    tls_cursor.initialized = true;
  }
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  const std::size_t active = active_.load(std::memory_order_acquire);
  // Per-shard counts accumulate locally and flush once: the metric adds
  // would otherwise be three more shared fetch-adds per token.
  std::vector<std::uint64_t> per_shard(active, 0);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t d = dispatch_.fetch_add(1, std::memory_order_acq_rel);
    const auto idx = static_cast<std::size_t>((d + offset_) % active);
    Shard& shard = *shards_[idx];
    const auto width = static_cast<std::uint32_t>(shard.network.width());
    (void)shard.cnet.traverse(
        static_cast<Wire>(tls_cursor.value++ % width));
    ++per_shard[idx];
  }
  for (std::size_t idx = 0; idx < active; ++idx) {
    if (per_shard[idx] == 0) continue;
    Shard& shard = *shards_[idx];
    shard.epoch_tokens.fetch_add(per_shard[idx], std::memory_order_relaxed);
    shard.local_tokens->add(per_shard[idx]);
    shard.home_tokens->add(per_shard[idx]);
  }
  tokens_counter_->add(n);
  in_flight_.fetch_sub(1, std::memory_order_release);
}

std::size_t ShardManager::shard_count() const { return shards_.size(); }

std::size_t ShardManager::active_shards() const {
  return active_.load(std::memory_order_acquire);
}

std::size_t ShardManager::shard_width() const {
  return shards_.front()->network.width();
}

std::uint64_t ShardManager::dispatched() const {
  return dispatch_.load(std::memory_order_acquire);
}

std::uint64_t ShardManager::epoch_base() const {
  return base_.load(std::memory_order_acquire);
}

std::uint64_t ShardManager::total() const {
  return epoch_base() + dispatched();
}

std::uint64_t ShardManager::in_flight() const {
  return in_flight_.load(std::memory_order_acquire);
}

void ShardManager::quiesce() const {
  while (in_flight() != 0) std::this_thread::yield();
}

Runtime& ShardManager::shard_runtime(std::size_t shard) {
  return shards_.at(shard)->runtime;
}

std::vector<Count> ShardManager::shard_output_counts(
    std::size_t shard) const {
  return shards_.at(shard)->cnet.output_counts();
}

std::vector<std::uint64_t> ShardManager::shard_gate_visits(
    std::size_t shard) const {
  return shards_.at(shard)->cnet.gate_visits();
}

ShardManager::LinearityReport ShardManager::verify_linearity() const {
  LinearityReport report;
  const std::uint64_t total = dispatched();
  const std::size_t active = active_shards();
  for (std::size_t j = 0; j < shards_.size(); ++j) {
    const std::vector<Count> counts = shard_output_counts(j);
    std::uint64_t routed = 0;
    for (const Count c : counts) routed += static_cast<std::uint64_t>(c);
    // Shard j serves the residue class r with (r + offset) % active == j,
    // so its round-robin share is the r-th, not the j-th.
    const std::size_t residue =
        (j + active - static_cast<std::size_t>(offset_ % active)) % active;
    const std::uint64_t expected =
        j < active ? ceil_share(total, residue, active) : 0;
    if (routed != expected) {
      report.detail = "shard " + std::to_string(j) + " routed " +
                      std::to_string(routed) + " tokens, expected " +
                      std::to_string(expected);
      return report;
    }
    if (j < active && !is_exact_step_output(counts)) {
      report.detail = "shard " + std::to_string(j) +
                      " outputs are not the exact step sequence: " +
                      format_sequence(counts);
      return report;
    }
    if (j < active && routed > 0) {
      // Engine cross-check: propagate the shard's routed total through its
      // compiled plan (balancer semantics) on the shard's own runtime and
      // backend request. A counting network's quiescent output depends only
      // on the total, so the dispatched count engine must reproduce the
      // concurrent traversal's counts exactly, whatever backend resolves.
      Shard& shard = *shards_[j];
      const CachedPlan cached = shard.runtime.compiled(
          shard.network, PassOptions{.semantics = Semantics::kBalancer});
      std::vector<Count> in(shard.network.width());
      for (std::size_t w = 0; w < in.size(); ++w) {
        in[w] = static_cast<Count>(ceil_share(routed, w, in.size()));
      }
      const std::vector<Count> engine_counts =
          engine::counts_output(*cached.plan, in, cached.backend);
      if (engine_counts != counts) {
        report.detail = "shard " + std::to_string(j) +
                        " engine cross-check mismatch: concurrent " +
                        format_sequence(counts) + " vs engine " +
                        format_sequence(engine_counts);
        return report;
      }
    }
  }
  // Every active shard holds THE step sequence of its round-robin share,
  // so the interleaved values are exactly {base .. base + total - 1}.
  report.ok = true;
  return report;
}

ShardManager::RebalanceDecision ShardManager::rebalance() {
#ifdef SCNET_CHECKED
  if (in_flight() != 0) {
    throw std::logic_error("rebalance() requires quiescence: " +
                           std::to_string(in_flight()) +
                           " call(s) in flight");
  }
#endif
  RebalanceDecision decision;
  decision.active_before = active_shards();
  decision.epoch_tokens = dispatched();

  // Score each active shard: (hottest-gate traffic fraction) x (tokens it
  // routed this epoch) estimates the serialized fetch-adds on its hottest
  // word. The probe feeds measured fractions when enabled; the analytical
  // model covers probe-less deployments.
  for (std::size_t j = 0; j < decision.active_before; ++j) {
    Shard& shard = *shards_[j];
    const std::uint64_t tokens =
        shard.epoch_tokens.load(std::memory_order_acquire);
    double hottest = 0.0;
    const std::vector<std::uint64_t> visits = shard.cnet.gate_visits();
    if (!visits.empty() && tokens > 0) {
      hottest = compare_contention(shard.network, visits, tokens)
                    .measured_hottest;
    } else {
      hottest = estimate_contention(shard.network).hottest_gate_fraction;
    }
    decision.max_score = std::max(
        decision.max_score, hottest * static_cast<double>(tokens));
  }

  std::size_t next_active = decision.active_before;
  if (decision.max_score > options_.grow_score &&
      next_active < shards_.size()) {
    ++next_active;
  } else if (decision.max_score < options_.shrink_score && next_active > 1) {
    --next_active;
  }
  decision.active_after = next_active;

  // Close the epoch: everything dispatched so far is handed out, the next
  // epoch's values start past it, and the shards restart from zero so
  // shard-local step properties become epoch-local.
  base_.fetch_add(dispatch_.exchange(0, std::memory_order_acq_rel),
                  std::memory_order_acq_rel);
  for (auto& shard : shards_) {
    shard->cnet.reset();
    shard->epoch_tokens.store(0, std::memory_order_release);
  }
  active_.store(next_active, std::memory_order_release);
  if (next_active != decision.active_before) rebalance_counter_->add(1);
  return decision;
}

}  // namespace scn
