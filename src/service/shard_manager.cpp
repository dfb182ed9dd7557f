#include "service/shard_manager.h"

#include <algorithm>
#include <map>
#include <mutex>
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
      : runtime(), network(make_k_network(factors, runtime)), cnet(network) {
    runtime.metrics().register_gauge("service.shard.tokens",
                                     [this] { return tokens(); });
  }

  /// Tokens routed this epoch: every token leaves through exactly one
  /// output, so the exit counts already count them.
  [[nodiscard]] std::uint64_t epoch_tokens() const {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < network.width(); ++i) {
      sum += static_cast<std::uint64_t>(cnet.exits(i));
    }
    return sum;
  }
  [[nodiscard]] std::uint64_t tokens() const {
    return closed_tokens.load(std::memory_order_relaxed) + epoch_tokens();
  }

  Runtime runtime;          // private tenant: own caches, metrics, pool
  Network network;          // owned storage — cnet references it
  ConcurrentNetwork cnet;
  std::atomic<std::uint64_t> closed_tokens{0};  // routed in closed epochs
};

// The home registry's token gauges. A registry holds one gauge per name,
// so every manager built on one home runtime shares one ledger, and the
// gauges sum it: live managers are read live, destroyed ones by the
// values they retired with. Series 0 is service.tokens, series 1 + J is
// service.shard<J>.tokens.
struct ShardManager::HomeLedger {
  std::mutex mu;
  std::vector<const ShardManager*> live;
  std::vector<std::uint64_t> retired;

  static std::uint64_t series(const ShardManager& m, std::size_t s) {
    if (s == 0) return m.total();
    return s - 1 < m.shard_count() ? m.shard_tokens(s - 1) : 0;
  }

  std::uint64_t read(std::size_t s) {
    const std::lock_guard<std::mutex> lock(mu);
    std::uint64_t sum = s < retired.size() ? retired[s] : 0;
    for (const ShardManager* m : live) sum += series(*m, s);
    return sum;
  }

  void retire(const ShardManager& m) {
    const std::lock_guard<std::mutex> lock(mu);
    std::erase(live, &m);
    retired.resize(std::max(retired.size(), m.shard_count() + 1), 0);
    for (std::size_t s = 0; s <= m.shard_count(); ++s) {
      retired[s] += series(m, s);
    }
  }

  /// The ledger of `registry`, created on first use. The registry's own
  /// gauges keep it alive, so it outlives every manager that used it and
  /// dies with the registry.
  static std::shared_ptr<HomeLedger> of(const obs::MetricsRegistry& registry) {
    static std::mutex table_mu;
    static std::map<const obs::MetricsRegistry*, std::weak_ptr<HomeLedger>>
        table;
    const std::lock_guard<std::mutex> lock(table_mu);
    std::erase_if(table, [](const auto& e) { return e.second.expired(); });
    std::weak_ptr<HomeLedger>& slot = table[&registry];
    std::shared_ptr<HomeLedger> ledger = slot.lock();
    if (ledger == nullptr) {
      ledger = std::make_shared<HomeLedger>();
      slot = ledger;
    }
    return ledger;
  }
};

ShardManager::ShardManager(const Options& options, Runtime& rt)
    : options_(options),
      active_(0),
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
    if (options_.visit_probe) shard->cnet.enable_visit_probe();
    shards_.push_back(std::move(shard));
  }
  const std::size_t initial =
      options_.initial_active == 0
          ? options_.shards
          : std::min(options_.initial_active, options_.shards);
  active_.store(initial, std::memory_order_release);

  // Join the home ledger last: once `this` is listed, nothing may throw,
  // or the ledger would keep a pointer the destructor never removes. The
  // gauges are registered outside the ledger's lock because a snapshot
  // takes the registry lock and then the ledger's.
  ledger_ = HomeLedger::of(rt.metrics());
  rt.metrics().register_gauge(
      "service.tokens", [ledger = ledger_] { return ledger->read(0); });
  for (std::size_t j = 0; j < options_.shards; ++j) {
    rt.metrics().register_gauge(
        "service.shard" + std::to_string(j) + ".tokens",
        [ledger = ledger_, j] { return ledger->read(j + 1); });
  }
  const std::lock_guard<std::mutex> lock(ledger_->mu);
  ledger_->live.push_back(this);
}

ShardManager::~ShardManager() { ledger_->retire(*this); }

std::uint64_t ShardManager::next() {
  if (!tls_cursor.initialized) {
    tls_cursor.value = thread_seq_.fetch_add(1, std::memory_order_relaxed);
    tls_cursor.initialized = true;
  }
  return next_on(static_cast<Wire>(tls_cursor.value++));
}

std::uint64_t ShardManager::next_on(Wire wire) {
  in_flight_.increment();
  // active_ and base_ only move inside rebalance(), which requires
  // in_flight_ == 0 — both are stable for the duration of this call.
  const std::size_t active = active_.load(std::memory_order_acquire);
  // Relaxed, like the balancers: each ticket is unique by the RMW's
  // atomicity alone, and rebalance()/verify_linearity() read the ticket
  // after the in-flight guard's release/acquire.
  const std::uint64_t d = dispatch_.fetch_add(1, std::memory_order_relaxed);
  // The offset rotates which SHARD serves ticket d; the value residue
  // stays d % active so the composed values still cover exactly
  // {base .. base + D - 1} (see the header's composition argument).
  const auto idx = static_cast<std::size_t>(reduce_mod(d + offset_, active));
  Shard& shard = *shards_[idx];
  const auto width = static_cast<std::uint64_t>(shard.network.width());
  const ConcurrentNetwork::ExitEvent exit = shard.cnet.traverse(
      static_cast<Wire>(reduce_mod(
          static_cast<std::uint64_t>(wire < 0 ? -wire : wire), width)));
  const std::uint64_t local =
      static_cast<std::uint64_t>(exit.position) + width * exit.ticket;
  const std::uint64_t value = base_.load(std::memory_order_relaxed) +
                              local * active + reduce_mod(d, active);
  in_flight_.decrement();
  return value;
}

void ShardManager::route(std::uint64_t n) {
  if (n == 0) return;
  if (!tls_cursor.initialized) {
    tls_cursor.value = thread_seq_.fetch_add(1, std::memory_order_relaxed);
    tls_cursor.initialized = true;
  }
  in_flight_.increment();
  const std::size_t active = active_.load(std::memory_order_acquire);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t d = dispatch_.fetch_add(1, std::memory_order_relaxed);
    Shard& shard =
        *shards_[static_cast<std::size_t>(reduce_mod(d + offset_, active))];
    (void)shard.cnet.traverse(static_cast<Wire>(
        reduce_mod(tls_cursor.value++, shard.network.width())));
  }
  in_flight_.decrement();
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

std::uint64_t ShardManager::shard_tokens(std::size_t shard) const {
  return shards_.at(shard)->tokens();
}

std::uint64_t ShardManager::in_flight() const { return in_flight_.sum(); }

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
          engine::counts_output(*cached.plan, in, shard.runtime.backend());
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
    const std::uint64_t tokens = shard.epoch_tokens();
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
    shard->closed_tokens.fetch_add(shard->epoch_tokens(),
                                   std::memory_order_relaxed);
    shard->cnet.reset();
  }
  active_.store(next_active, std::memory_order_release);
  if (next_active != decision.active_before) rebalance_counter_->add(1);
  return decision;
}

}  // namespace scn
