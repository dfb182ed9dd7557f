#include "service/shard_manager.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/k_network.h"
#include "engine/batch_engine.h"
#include "obs/metrics.h"
#include "opt/plan_cache.h"
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
                         std::size_t parts) {
  // Tokens part `index` receives out of `total` round-robin dispatches
  // over `parts` parts: ceil((total - index) / parts).
  if (total <= index) return 0;
  return (total - index + parts - 1) / parts;
}

}  // namespace

struct ShardManager::Shard {
  explicit Shard(const std::vector<std::size_t>& factors)
      : runtime(), network(make_k_network(factors, runtime)), cnet(network) {
    runtime.metrics().register_gauge("service.shard.tokens",
                                     [this] { return tokens(); });
  }

  /// Tokens routed: every token leaves through exactly one output, so the
  /// exit counts already count them.
  [[nodiscard]] std::uint64_t tokens() const {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < network.width(); ++i) {
      sum += static_cast<std::uint64_t>(cnet.exits(i));
    }
    return sum;
  }

  Runtime runtime;          // private tenant: own caches, metrics, pool
  Network network;          // owned storage — cnet references it
  ConcurrentNetwork cnet;
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
    : options_(options) {
  if (options_.shards == 0) {
    throw std::invalid_argument("ShardManager needs at least one shard");
  }
  for (const std::size_t f : options_.factors) {
    if (f < 2) {
      throw std::invalid_argument("shard network factors must be >= 2");
    }
  }
  shards_.reserve(options_.shards);
  for (std::size_t j = 0; j < options_.shards; ++j) {
    auto shard = std::make_unique<Shard>(options_.factors);
    if (options_.visit_probe) shard->cnet.enable_visit_probe();
    shards_.push_back(std::move(shard));
  }

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
  // Relaxed, like the balancers: each ticket is unique by the RMW's
  // atomicity alone, and verify_linearity() reads the ticket after the
  // in-flight guard's release/acquire.
  const std::uint64_t d = dispatch_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t shards = shards_.size();
  // The offset rotates which SHARD serves ticket d; the value residue
  // stays d % S so the composed values still cover exactly {0 .. D - 1}
  // (see the header's composition argument).
  Shard& shard = *shards_[static_cast<std::size_t>(
      reduce_mod(d + options_.dispatch_offset, shards))];
  const auto width = static_cast<std::uint64_t>(shard.network.width());
  // Reduce the wire as unsigned, like NetworkCounter::next: every Wire
  // value is a valid entry, and negating INT32_MIN would overflow.
  const ConcurrentNetwork::ExitEvent exit = shard.cnet.traverse(
      static_cast<Wire>(reduce_mod(static_cast<std::uint32_t>(wire), width)));
  const std::uint64_t local =
      static_cast<std::uint64_t>(exit.position) + width * exit.ticket;
  const std::uint64_t value = local * shards + reduce_mod(d, shards);
  in_flight_.decrement();
  return value;
}

std::size_t ShardManager::shard_count() const { return shards_.size(); }

std::size_t ShardManager::shard_width() const {
  return shards_.front()->network.width();
}

std::uint64_t ShardManager::total() const {
  return dispatch_.load(std::memory_order_acquire);
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
  const std::uint64_t dispatched = total();
  const std::size_t shards = shards_.size();
  for (std::size_t j = 0; j < shards; ++j) {
    const std::vector<Count> counts = shard_output_counts(j);
    std::uint64_t routed = 0;
    for (const Count c : counts) routed += static_cast<std::uint64_t>(c);
    // Shard j serves the residue class r with (r + offset) % S == j, so
    // its round-robin share is the r-th, not the j-th.
    const std::size_t residue =
        (j + shards -
         static_cast<std::size_t>(options_.dispatch_offset % shards)) %
        shards;
    const std::uint64_t expected = ceil_share(dispatched, residue, shards);
    if (routed != expected) {
      report.detail = "shard " + std::to_string(j) + " routed " +
                      std::to_string(routed) + " tokens, expected " +
                      std::to_string(expected);
      return report;
    }
    if (!is_exact_step_output(counts)) {
      report.detail = "shard " + std::to_string(j) +
                      " outputs are not the exact step sequence: " +
                      format_sequence(counts);
      return report;
    }
    if (routed > 0) {
      // Engine cross-check: propagate the shard's routed total through its
      // compiled plan (balancer semantics) from the shard's own runtime. A
      // counting network's quiescent output depends only on the total, so
      // the count engine must reproduce the concurrent traversal's counts
      // exactly.
      Shard& shard = *shards_[j];
      const CachedPlan cached = shard.runtime.compiled(shard.network);
      std::vector<Count> in(shard.network.width());
      for (std::size_t w = 0; w < in.size(); ++w) {
        in[w] = static_cast<Count>(ceil_share(routed, w, in.size()));
      }
      const std::vector<Count> engine_counts =
          plan_output_counts(*cached.plan, in);
      if (engine_counts != counts) {
        report.detail = "shard " + std::to_string(j) +
                        " engine cross-check mismatch: concurrent " +
                        format_sequence(counts) + " vs engine " +
                        format_sequence(engine_counts);
        return report;
      }
    }
  }
  // Every shard holds THE step sequence of its round-robin share, so the
  // interleaved values are exactly {0 .. total - 1}.
  report.ok = true;
  return report;
}

}  // namespace scn
