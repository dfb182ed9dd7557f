// The scnet benchmark: runs one workload per process through the library's
// public API, checks every output, and prints the result as one JSON object
// on the last line of standard output.
//
//   scbench --workload sort_batch|sort_single|count_network|count_sharded
//           --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 is a separate run: it alternates untraced and traced chunks of
// the same loop (obs.trace_overhead_frac), then calls each layer's public
// entry points inside spans and derives the per-layer metrics from those
// spans. NOTES.md says which end-to-end metric each layer metric should
// move, and on which workload.
#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/high_level.h"
#include "core/family.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "engine/backend.h"
#include "engine/batch_engine.h"
#include "opt/plan_cache.h"
#include "runtime/runtime.h"
#include "service/shard_manager.h"
#include "sim/concurrent_sim.h"

#include "harness.h"

namespace {

using namespace scn;
using scbench::ClientTeam;
using scbench::now_ns;
using scbench::Reservoir;
using scbench::Rng;
using scbench::Round;
using scbench::ScopedSpan;
using scbench::Tracer;

constexpr std::int64_t kRoundNs = 100'000'000;  // one timed round
// A run is split into chunks, each opened by a batch of set-ups (one more
// batch opens the warm-up): at least kMinSetups, then more until the batch
// has spent kSetupShare / (kChunks + 1) of the run's seconds or made
// kMaxSetups. Spreading the batches over the run lets set-up time see the
// same drift of the host as the loop does.
constexpr int kChunks = 40;
constexpr std::size_t kMinSetups = 4;
constexpr std::size_t kMaxSetups = 600;
constexpr double kSetupShare = 0.1;
constexpr std::size_t kStructureReps = 31;  // build + compile, traced run
constexpr std::size_t kValuesPerThread = std::size_t{1} << 20;
constexpr Count kValueRange = Count{1} << 20;   // sort inputs in [0, 2^20)

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }
double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}
std::int64_t share_ns(std::int64_t budget_ns, double share) {
  return static_cast<std::int64_t>(static_cast<double>(budget_ns) * share);
}

/// Everything one run reports.
struct Output {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> exact;  // metrics that must repeat exactly
  std::vector<std::pair<std::string, std::string>> info;  // key -> JSON
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, std::string unit,
           bool is_exact = false) {
    if (is_exact) exact.push_back(name);
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0);
    info.emplace_back(std::move(key), buf);
  }
  void note(std::string key, const std::string& text) {
    std::string quoted(1, '"');
    quoted += scbench::json_escape(text);
    quoted += '"';
    info.emplace_back(std::move(key), std::move(quoted));
  }
  /// Folds a check result into attempted/failed.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

std::vector<Count> random_vector(Rng& rng, std::size_t width,
                                 scbench::Fnv& hash) {
  std::vector<Count> v(width);
  for (Count& x : v) {
    x = static_cast<Count>(rng.next() % static_cast<std::uint64_t>(kValueRange));
    hash.add(static_cast<std::uint64_t>(x));
  }
  return v;
}

std::vector<Count> sorted_copy(const std::vector<Count>& v, bool descending) {
  std::vector<Count> s = v;
  if (descending) {
    std::sort(s.begin(), s.end(), std::greater<>());
  } else {
    std::sort(s.begin(), s.end());
  }
  return s;
}

/// Number of values in `values` (one span per thread) that break "exactly
/// {issued .. issued + n - 1}, each once": out of range or repeated. With
/// n values in total, zero means the set is exact.
template <class Team>
std::uint64_t bad_values(const Team& team, std::uint64_t issued,
                         std::uint64_t n, std::vector<std::uint64_t>& bits) {
  bits.assign(static_cast<std::size_t>((n + 63) / 64), 0);
  std::uint64_t bad = 0;
  for (std::size_t t = 0; t < team.threads(); ++t) {
    for (const std::uint64_t v : team.values(t)) {
      const std::uint64_t k = v - issued;  // wraps for v < issued
      if (v < issued || k >= n) {
        ++bad;
        continue;
      }
      std::uint64_t& word = bits[static_cast<std::size_t>(k / 64)];
      const std::uint64_t bit = std::uint64_t{1} << (k % 64);
      if ((word & bit) != 0) ++bad;
      word |= bit;
    }
  }
  return bad;
}

/// True if `counts` (logical output order) has the step property.
bool is_step(const std::vector<Count>& counts) {
  if (counts.empty()) return true;
  const Count hi = counts.front();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > hi || hi - counts[i] > 1) return false;
    if (i > 0 && counts[i] > counts[i - 1]) return false;
  }
  return true;
}

/// One client call; a plain functor so ClientTeam's loop inlines it.
template <class Counter>
struct CallNext {
  Counter* counter;
  std::uint64_t operator()() const { return counter->next(); }
};

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  Workload(std::size_t threads, std::uint64_t seed)
      : threads_(threads), seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// One complete set-up, from constructing a fresh Runtime through the
  /// first completed operation; returns its seconds. With `adopt` the state
  /// it builds becomes what loop() runs on (the first set-up of a run);
  /// otherwise it is torn down once the clock has stopped.
  virtual double setup(Tracer* tracer, bool adopt) = 0;

  /// Runs closed-loop rounds for about `budget_ns`, appending each round's
  /// completed operations per second to `rates`. With a tracer, calls are
  /// recorded as spans and no latency is sampled.
  virtual void loop(std::int64_t budget_ns, Tracer* tracer,
                    std::vector<double>& rates) = 0;

  /// Latency samples (ns) of untraced calls, and how many calls were timed.
  virtual std::vector<double> latencies() const = 0;
  virtual std::uint64_t latency_samples() const = 0;
  virtual void discard_latencies() = 0;
  /// Calls made by loop() so far (one sort_batch, one sort or one next()).
  virtual std::uint64_t calls() const = 0;
  /// Whole-state checks that need quiescence; run between loop() calls so
  /// whatever they call stays out of the loop's accounting.
  virtual void verify_quiescent() {}

  /// The network this workload runs, built on `rt`, and its span name.
  virtual Network build_network(Runtime& rt) const = 0;
  virtual const char* build_name() const = 0;
  virtual Semantics semantics() const = 0;

  [[nodiscard]] std::uint64_t input_hash() const { return input_hash_; }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 protected:
  Runtime::Options runtime_options() const {
    Runtime::Options o;
    o.threads = threads_;
    return o;
  }

  std::size_t threads_;
  std::uint64_t seed_;
  std::uint64_t input_hash_ = 0;
};

/// Single-caller closed loop shared by the two sorting workloads: call(i)
/// is timed, check(i) runs after the clock stops and returns whether call
/// i's output was right. Each call completes `ops_per_call` operations.
template <class Call, class Check>
void caller_rounds(std::int64_t budget_ns, Tracer* tracer,
                   const char* span_name, std::uint64_t span_every,
                   std::uint64_t ops_per_call, std::uint64_t& cursor,
                   Reservoir& latency, Workload& w,
                   std::vector<double>& rates, Call call, Check check) {
  const std::int64_t end = now_ns() + budget_ns;
  while (now_ns() < end) {
    const std::int64_t round_end = std::min(end, now_ns() + kRoundNs);
    std::int64_t busy = 0;
    std::uint64_t ops = 0;
    std::int64_t t1 = 0;
    do {
      const std::uint64_t i = cursor++;
      const std::int64_t t0 = now_ns();
      bool threw = false;
      try {
        call(i);
      } catch (...) {
        threw = true;
      }
      t1 = now_ns();
      busy += t1 - t0;
      w.attempted += ops_per_call;
      if (threw) {
        w.failed += ops_per_call;
        continue;
      }
      ops += ops_per_call;
      if (tracer == nullptr) {
        latency.add(static_cast<double>(t1 - t0));
      } else if (i % span_every == 0) {
        tracer->record(span_name, t0, t1);
      }
      w.failed += ops_per_call - check(i);
    } while (t1 < round_end);
    rates.push_back(ratio(static_cast<double>(ops),
                          static_cast<double>(busy) * 1e-9));
  }
}

/// engine::sort_batch over 4096 random width-32 vectors per call through
/// L(2,2,2,2,2) on a private runtime's pool.
class SortBatch final : public Workload {
 public:
  static constexpr std::size_t kLanes = 4096;
  static constexpr std::size_t kWidth = 32;
  static constexpr std::size_t kRing = 4;

  SortBatch(std::size_t threads, std::uint64_t seed)
      : Workload(threads, seed), latency_(std::size_t{1} << 16, seed) {
    Rng rng(seed);
    scbench::Fnv hash;
    for (std::size_t r = 0; r < kRing; ++r) {
      inputs_.emplace_back();
      expected_.emplace_back();
      for (std::size_t j = 0; j < kLanes; ++j) {
        inputs_[r].push_back(random_vector(rng, kWidth, hash));
        expected_[r].push_back(sorted_copy(inputs_[r].back(), true));
      }
    }
    input_hash_ = hash.value();
  }

  double setup(Tracer* tracer, bool adopt) override {
    std::unique_ptr<Runtime> rt;
    std::shared_ptr<const ExecutionPlan> plan;
    double seconds = 0;
    {
      ScopedSpan root(tracer, "setup");
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan s(tracer, "runtime.Runtime");
        rt = std::make_unique<Runtime>(runtime_options());
      }
      Network net;
      {
        ScopedSpan s(tracer, "core.make_l_network");
        net = build_network(*rt);
      }
      {
        ScopedSpan s(tracer, "opt.compiled");
        plan = rt->compiled(net).plan;
      }
      {
        ScopedSpan s(tracer, "engine.sort_batch");
        out_ = engine::sort_batch(*plan, inputs_[0], *rt, rt->backend());
      }
      seconds = seconds_since(t0);
    }
    attempted += kLanes;
    failed += kLanes - matches(0);
    if (adopt) {
      rt_ = std::move(rt);
      plan_ = std::move(plan);
    }
    return seconds;  // a runtime not adopted joins its pool here
  }

  void loop(std::int64_t budget_ns, Tracer* tracer,
            std::vector<double>& rates) override {
    caller_rounds(
        budget_ns, tracer, "engine.sort_batch", 1, kLanes, cursor_, latency_,
        *this, rates,
        [&](std::uint64_t i) {
          out_ = engine::sort_batch(*plan_, inputs_[i % kRing], *rt_,
                                    rt_->backend());
        },
        [&](std::uint64_t i) { return matches(i); });
  }

  std::vector<double> latencies() const override {
    std::vector<double> v;
    latency_.merge_into(v);
    return v;
  }
  std::uint64_t latency_samples() const override { return latency_.seen(); }
  void discard_latencies() override {
    latency_ = Reservoir(std::size_t{1} << 16, seed_);
  }
  std::uint64_t calls() const override { return cursor_; }

  Network build_network(Runtime& rt) const override {
    return make_l_network({2, 2, 2, 2, 2}, rt);
  }
  const char* build_name() const override { return "core.make_l_network"; }
  Semantics semantics() const override { return Semantics::kComparator; }

 private:
  /// Lanes of out_ equal to the expected output of call i; releases out_.
  std::uint64_t matches(std::uint64_t i) {
    const auto& want = expected_[i % kRing];
    std::uint64_t ok = 0;
    if (out_.size() == want.size()) {
      for (std::size_t j = 0; j < want.size(); ++j) ok += out_[j] == want[j];
    }
    out_ = {};
    return ok;
  }

  std::vector<std::vector<std::vector<Count>>> inputs_;
  std::vector<std::vector<std::vector<Count>>> expected_;
  std::unique_ptr<Runtime> rt_;
  std::shared_ptr<const ExecutionPlan> plan_;
  std::vector<std::vector<Count>> out_;
  std::uint64_t cursor_ = 0;
  Reservoir latency_;
};

/// Sorter(64).sort on one vector per call, cycling through a ring of
/// distinct inputs.
class SortSingle final : public Workload {
 public:
  static constexpr std::size_t kWidth = 64;
  static constexpr std::size_t kRing = 4096;
  static constexpr std::uint64_t kSpanEvery = 16;

  SortSingle(std::size_t threads, std::uint64_t seed)
      : Workload(threads, seed), latency_(std::size_t{1} << 20, seed) {
    Rng rng(seed);
    scbench::Fnv hash;
    for (std::size_t r = 0; r < kRing; ++r) {
      inputs_.push_back(random_vector(rng, kWidth, hash));
      expected_.push_back(sorted_copy(inputs_.back(), false));
    }
    input_hash_ = hash.value();
  }

  double setup(Tracer* tracer, bool adopt) override {
    std::unique_ptr<Runtime> rt;
    std::unique_ptr<Sorter> sorter;
    std::vector<Count> first = inputs_[0];
    double seconds = 0;
    {
      ScopedSpan root(tracer, "setup");
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan s(tracer, "runtime.Runtime");
        rt = std::make_unique<Runtime>(runtime_options());
      }
      {
        ScopedSpan s(tracer, "api.Sorter::Sorter");
        sorter = std::make_unique<Sorter>(kWidth, *rt);
      }
      {
        ScopedSpan s(tracer, "api.Sorter::sort");
        sorter->sort(first);
      }
      seconds = seconds_since(t0);
    }
    attempted += 1;
    failed += first == expected_[0] ? 0u : 1u;
    if (adopt) {
      rt_ = std::move(rt);
      sorter_ = std::move(sorter);
      work_ = inputs_[cursor_ % kRing];
    }
    return seconds;
  }

  void loop(std::int64_t budget_ns, Tracer* tracer,
            std::vector<double>& rates) override {
    caller_rounds(
        budget_ns, tracer, "api.Sorter::sort", kSpanEvery, 1, cursor_,
        latency_, *this, rates, [&](std::uint64_t) { sorter_->sort(work_); },
        [&](std::uint64_t i) {
          const bool ok = work_ == expected_[i % kRing];
          const auto& next = inputs_[(i + 1) % kRing];
          std::copy(next.begin(), next.end(), work_.begin());
          return std::uint64_t{ok ? 1u : 0u};
        });
  }

  std::vector<double> latencies() const override {
    std::vector<double> v;
    latency_.merge_into(v);
    return v;
  }
  std::uint64_t latency_samples() const override { return latency_.seen(); }
  void discard_latencies() override {
    latency_ = Reservoir(std::size_t{1} << 20, seed_);
  }
  std::uint64_t calls() const override { return cursor_; }

  Network build_network(Runtime& rt) const override {
    return make_network_for_width(kWidth, Sorter::Options{}.max_comparator,
                                  NetworkKind::kL, rt);
  }
  const char* build_name() const override {
    return "core.make_network_for_width";
  }
  Semantics semantics() const override { return Semantics::kComparator; }

 private:
  std::vector<std::vector<Count>> inputs_;
  std::vector<std::vector<Count>> expected_;
  std::unique_ptr<Runtime> rt_;
  std::unique_ptr<Sorter> sorter_;
  std::vector<Count> work_;
  std::uint64_t cursor_ = 0;
  Reservoir latency_;
};

/// `threads` pinned clients calling Counter::next() in a closed loop. The
/// counter is built by `make` on a fresh runtime; every round's values are
/// checked at quiescence, and `verify` is a further whole-state check.
template <class Counter>
class Counting final : public Workload {
 public:
  struct Spec {
    std::function<std::unique_ptr<Counter>(Runtime&, Tracer*)> make;
    std::function<bool(Counter&)> verify;  // may be empty; at quiescence
    std::function<Network(Runtime&)> build;
    const char* build_name;
    const char* next_name;  // span name of one next()
  };

  Counting(std::size_t threads, std::uint64_t seed, Spec spec)
      : Workload(threads, seed), spec_(std::move(spec)) {
    // The seed drives the clients' latency-sampling streams; hash the
    // first draws of each so the self-test sees the inputs move.
    scbench::Fnv hash;
    for (std::size_t t = 0; t < threads; ++t) {
      Rng rng(seed * 1000003 + t);
      for (int k = 0; k < 64; ++k) hash.add(rng.next());
    }
    input_hash_ = hash.value();
  }

  double setup(Tracer* tracer, bool adopt) override {
    std::unique_ptr<Runtime> rt;
    std::unique_ptr<Counter> counter;
    std::uint64_t first = 0;
    bool threw = false;
    double seconds = 0;
    {
      ScopedSpan root(tracer, "setup");
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan s(tracer, "runtime.Runtime");
        rt = std::make_unique<Runtime>(runtime_options());
      }
      counter = spec_.make(*rt, tracer);
      {
        ScopedSpan s(tracer, spec_.next_name);
        try {
          first = counter->next();
        } catch (...) {
          threw = true;
        }
      }
      seconds = seconds_since(t0);
    }
    attempted += 1;
    failed += (threw || first != 0) ? 1 : 0;
    if (adopt && !team_) {
      rt_ = std::move(rt);
      counter_ = std::move(counter);
      issued_ = 1;
    }
    return seconds;
  }

  void loop(std::int64_t budget_ns, Tracer* tracer,
            std::vector<double>& rates) override {
    if (!team_) {
      team_ = std::make_unique<Team>(threads_, kValuesPerThread, seed_,
                                     spec_.next_name,
                                     CallNext<Counter>{counter_.get()});
      std::uint64_t primed = 0;  // each client's first call, made in order
      for (std::size_t t = 0; t < threads_; ++t) {
        primed += team_->values(t).size();
      }
      account(primed, threads_ - primed);
    }
    const std::int64_t end = now_ns() + budget_ns;
    while (now_ns() < end) {
      const Round r = team_->round(std::min(kRoundNs, end - now_ns()), tracer);
      account(r.ops, r.errors);
      calls_ += r.ops;
      rates.push_back(r.ops_per_s());
    }
  }

  std::vector<double> latencies() const override {
    return team_ ? team_->latencies() : std::vector<double>{};
  }
  std::uint64_t latency_samples() const override {
    return team_ ? team_->latency_samples() : 0;
  }
  void discard_latencies() override {
    if (team_) team_->reset_latencies();
  }
  std::uint64_t calls() const override { return calls_; }

  Network build_network(Runtime& rt) const override { return spec_.build(rt); }
  const char* build_name() const override { return spec_.build_name; }
  Semantics semantics() const override { return Semantics::kBalancer; }

  /// Lowest over highest per-client call count so far.
  [[nodiscard]] double thread_ops_min_over_max() const {
    if (!team_) return 0;
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (std::size_t t = 0; t < team_->threads(); ++t) {
      lo = std::min(lo, team_->total_ops(t));
      hi = std::max(hi, team_->total_ops(t));
    }
    return ratio(static_cast<double>(lo), static_cast<double>(hi));
  }
  void verify_quiescent() override {
    if (!spec_.verify || !counter_) return;
    ++attempted;
    if (!spec_.verify(*counter_)) {
      ++verify_failures_;
      ++failed;
    }
  }
  [[nodiscard]] bool verified() const { return verify_failures_ == 0; }

 private:
  using Team = ClientTeam<CallNext<Counter>>;

  /// Checks the n values of the round that just ended at quiescence.
  void account(std::uint64_t n, std::uint64_t errors) {
    attempted += n + errors;
    failed += errors + bad_values(*team_, issued_, n, bits_);
    issued_ += n;
  }

  Spec spec_;
  std::unique_ptr<Runtime> rt_;
  std::unique_ptr<Counter> counter_;
  std::unique_ptr<Team> team_;  // after counter_: its clients call it
  std::uint64_t issued_ = 0;  // values handed out so far
  std::uint64_t calls_ = 0;
  std::uint64_t verify_failures_ = 0;
  std::vector<std::uint64_t> bits_;
};

Counting<NetworkCounter>::Spec network_counter_spec() {
  return {
      .make =
          [](Runtime& rt, Tracer* tracer) {
            Network net;
            {
              ScopedSpan s(tracer, "core.make_k_network");
              net = make_k_network({4, 4}, rt);
            }
            ScopedSpan s(tracer, "count.NetworkCounter");
            return std::make_unique<NetworkCounter>(net);
          },
      .verify = {},
      .build = [](Runtime& rt) { return make_k_network({4, 4}, rt); },
      .build_name = "core.make_k_network",
      .next_name = "count.NetworkCounter::next",
  };
}

Counting<CountingService>::Spec counting_service_spec() {
  return {
      .make =
          [](Runtime& rt, Tracer* tracer) {
            ScopedSpan s(tracer, "api.CountingService");
            return std::make_unique<CountingService>(CountingService::Options{},
                                                     rt);
          },
      .verify =
          [](CountingService& svc) {
            return svc.shards().verify_linearity().ok;
          },
      .build =
          [](Runtime& rt) {
            return make_k_network(CountingService::Options{}.factors, rt);
          },
      .build_name = "core.make_k_network",
      .next_name = "api.CountingService::next",
  };
}

Counting<AtomicCounter>::Spec atomic_counter_spec() {
  return {
      .make =
          [](Runtime&, Tracer*) { return std::make_unique<AtomicCounter>(); },
      .verify = {},
      .build = {},  // no network: never handed to probe_structure
      .build_name = "",
      .next_name = "count.AtomicCounter::next",
  };
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::size_t threads,
                                        std::uint64_t seed) {
  if (name == "sort_batch") return std::make_unique<SortBatch>(threads, seed);
  if (name == "sort_single") {
    return std::make_unique<SortSingle>(threads, seed);
  }
  if (name == "count_network") {
    return std::make_unique<Counting<NetworkCounter>>(threads, seed,
                                                      network_counter_spec());
  }
  if (name == "count_sharded") {
    return std::make_unique<Counting<CountingService>>(
        threads, seed, counting_service_spec());
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Layer probes (traced run only). Each calls one layer's public entry
// points inside spans on a fresh private runtime and checks the outputs.

/// core + opt: build and compile the workload's own network.
void probe_structure(const Workload& w, std::size_t threads, Tracer& tr,
                     Output& out) {
  std::uint64_t misses = 0;
  std::size_t gates = 0, gates_out = 0, layers = 0;
  std::uint32_t depth = 0, depth_out = 0;
  for (std::size_t rep = 0; rep < kStructureReps; ++rep) {
    Runtime::Options o;
    o.threads = threads;
    Runtime rt(o);
    ScopedSpan root(&tr, "probe.structure");
    Network net;
    {
      ScopedSpan s(&tr, w.build_name());
      net = w.build_network(rt);
    }
    misses = cache_stats(rt).module_misses;
    CachedPlan cp;
    {
      ScopedSpan s(&tr, "opt.compiled");
      cp = rt.compiled(net, PassOptions{.semantics = w.semantics()});
    }
    gates = net.gate_count();
    depth = net.depth();
    gates_out = cp.plan->gate_count();
    depth_out = cp.plan->depth();
    if (cp.passes && !cp.passes->empty()) {
      gates_out = cp.passes->back().gates_after;
      depth_out = cp.passes->back().depth_after;
    }
    layers = cp.plan->layers().size();
  }
  out.add("core.build_ns",
          scbench::median(tr.durations(w.build_name(), "probe.structure")),
          "ns");
  out.add("core.gates", static_cast<double>(gates), "count", true);
  out.add("core.depth", depth, "count", true);
  out.add("core.module_cache_misses", static_cast<double>(misses), "count",
          true);
  out.add("opt.compile_ns",
          scbench::median(tr.durations("opt.compiled", "probe.structure")),
          "ns");
  out.add("opt.gates_out", static_cast<double>(gates_out), "count", true);
  out.add("opt.depth_out", depth_out, "count", true);
  out.add("opt.plan_layers", static_cast<double>(layers), "count", true);
}

/// engine + perf: one sort_batch call, then the same batch split into
/// pack, kernel and unpack, then the kernel again on the serial backend.
void probe_engine(std::size_t threads, std::uint64_t seed,
                  std::int64_t budget_ns, Tracer& tr, Output& out) {
  constexpr std::size_t kLanes = SortBatch::kLanes;
  Runtime::Options o;
  o.threads = threads;
  Runtime rt(o);
  const Network net = make_l_network({2, 2, 2, 2, 2}, rt);
  const auto plan = rt.compiled(net).plan;
  Rng rng(seed ^ 0xE4E4E4E4u);
  scbench::Fnv unused;
  std::vector<std::vector<Count>> inputs, expected;
  for (std::size_t j = 0; j < kLanes; ++j) {
    inputs.push_back(random_vector(rng, SortBatch::kWidth, unused));
    expected.push_back(sorted_copy(inputs.back(), true));
  }
  const std::span<const std::vector<Count>> in(inputs);
  const EngineBackend resolved =
      engine::resolve_backend(rt.backend(), *plan, kLanes);
  const auto check = [&](const std::vector<std::vector<Count>>& got) {
    out.check(got == expected);
  };
  for (int warm = 0; warm < 3; ++warm) {
    check(engine::sort_batch(*plan, in, rt, rt.backend()));
  }
  const std::int64_t end = now_ns() + budget_ns;
  for (int rep = 0; rep < 16 || now_ns() < end; ++rep) {
    std::vector<std::vector<Count>> got;
    {
      ScopedSpan root(&tr, "probe.engine_e2e");
      ScopedSpan s(&tr, "engine.sort_batch");
      got = engine::sort_batch(*plan, in, rt, rt.backend());
    }
    check(got);
    got.assign(kLanes, {});
    {
      ScopedSpan root(&tr, "probe.engine_split");
      engine::Batch<Count> batch;
      {
        ScopedSpan s(&tr, "engine.pack_batch");
        batch = engine::pack_batch<Count>(in, plan->width());
      }
      {
        ScopedSpan s(&tr, "engine.run_batch");
        engine::backend(resolved).run_batch(*plan, batch, rt);
      }
      {
        ScopedSpan s(&tr, "engine.unpack");
        for (std::size_t j = 0; j < kLanes; ++j) {
          got[j] = batch.lane_in_order(j, plan->output_order());
        }
      }
    }
    check(got);
    engine::Batch<Count> serial = engine::pack_batch<Count>(in, plan->width());
    {
      ScopedSpan s(&tr, "perf.run_batch_serial");
      engine::backend(EngineBackend::kBatch).run_batch(*plan, serial, rt);
    }
    for (std::size_t j = 0; j < kLanes; ++j) {
      got[j] = serial.lane_in_order(j, plan->output_order());
    }
    check(got);
  }
  const double e2e = scbench::median(tr.durations("engine.sort_batch",
                                                  "probe.engine_e2e"));
  const double pack = scbench::median(tr.durations("engine.pack_batch"));
  const double kernel = scbench::median(tr.durations("engine.run_batch"));
  const double unpack = scbench::median(tr.durations("engine.unpack"));
  const double serial = scbench::median(tr.durations("perf.run_batch_serial"));
  out.add("engine.sort_batch_ns", e2e, "ns");
  out.add("engine.pack_ns", pack, "ns");
  out.add("engine.kernel_ns", kernel, "ns");
  out.add("engine.unpack_ns", unpack, "ns");
  out.add("engine.stage_sum_frac", ratio(pack + kernel + unpack, e2e), "ratio");
  out.add("perf.kernel_serial_ns", serial, "ns");
  out.add("perf.pool_speedup", ratio(serial, kernel), "ratio");
  out.note("engine.resolved_backend", to_string(resolved));
  out.note("engine.stage_sum_frac.base",
           "median engine::sort_batch call on the same 4096x32 batch "
           "(engine.sort_batch_ns); stages run serially on the caller");
}

/// api vs engine vs scalar kernel: one width-64 vector at three levels.
void probe_scalar(std::size_t threads, std::uint64_t seed,
                  std::int64_t budget_ns, Tracer& tr, Output& out) {
  constexpr std::size_t kRing = 256;
  constexpr int kMaxReps = 20000;  // three spans each; stays in one buffer
  Runtime::Options o;
  o.threads = threads;
  Runtime rt(o);
  const Sorter sorter(SortSingle::kWidth, rt);
  const ExecutionPlan& plan = sorter.plan();
  Rng rng(seed ^ 0x5C5C5C5Cu);
  scbench::Fnv unused;
  std::vector<std::vector<Count>> ring, ascending;
  for (std::size_t r = 0; r < kRing; ++r) {
    ring.push_back(random_vector(rng, SortSingle::kWidth, unused));
    ascending.push_back(sorted_copy(ring.back(), false));
  }
  std::vector<Count> work(SortSingle::kWidth), gathered(SortSingle::kWidth);
  const std::int64_t end = now_ns() + budget_ns;
  ScopedSpan root(&tr, "probe.scalar");
  for (int rep = 0; rep < kMaxReps && (rep < 1000 || now_ns() < end); ++rep) {
    const auto& input = ring[static_cast<std::size_t>(rep) % kRing];
    const auto& want = ascending[static_cast<std::size_t>(rep) % kRing];
    std::copy(input.begin(), input.end(), work.begin());
    {
      ScopedSpan s(&tr, "api.Sorter::sort");
      sorter.sort(work);
    }
    out.check(work == want);
    std::vector<Count> res;
    {
      ScopedSpan s(&tr, "engine.sorted_output");
      res = engine::sorted_output(plan, input, rt.backend());
    }
    out.check(std::equal(res.begin(), res.end(), want.rbegin(), want.rend()));
    std::copy(input.begin(), input.end(), work.begin());
    {
      ScopedSpan s(&tr, "engine.run_plan");
      run_plan(plan, work);
    }
    for (std::size_t k = 0; k < gathered.size(); ++k) {
      gathered[k] = work[static_cast<std::size_t>(plan.output_order()[k])];
    }
    out.check(std::equal(gathered.begin(), gathered.end(), want.rbegin(),
                         want.rend()));
  }
  out.add("api.sort_ns",
          scbench::median(tr.durations("api.Sorter::sort", "probe.scalar")),
          "ns");
  out.add("engine.sorted_output_ns",
          scbench::median(tr.durations("engine.sorted_output", "probe.scalar")),
          "ns");
  out.add("engine.scalar_kernel_ns",
          scbench::median(tr.durations("engine.run_plan", "probe.scalar")),
          "ns");
}

struct TeamResult {
  double ops_per_s = 0;
  double thread_ops_min_over_max = 0;
  bool verified = true;
};

/// Runs a fresh counter (built by `spec`) under `threads` pinned clients
/// for about `budget_ns`, untraced, inside one span named `span`.
template <class Counter>
TeamResult drive_counter(typename Counting<Counter>::Spec spec,
                         std::size_t threads, std::uint64_t seed,
                         std::int64_t budget_ns, const char* span,
                         Tracer& tr, Output& out) {
  ScopedSpan s(&tr, span);
  Counting<Counter> w(threads, seed, std::move(spec));
  w.setup(nullptr, true);
  std::vector<double> warm, rates;
  w.loop(std::min(budget_ns / 10, kRoundNs), nullptr, warm);
  w.loop(budget_ns, nullptr, rates);
  w.verify_quiescent();
  out.attempted += w.attempted;
  out.failed += w.failed;
  return {scbench::median(rates), w.thread_ops_min_over_max(), w.verified()};
}

/// A fixed token schedule through a probe-enabled network, so the visit
/// counts are exact: client t enters on wires t, t+1, ... (the library's
/// per-thread round-robin), 16384 tokens each.
constexpr std::uint64_t kProbeTokensPerClient = 16384;

void probe_sim(std::size_t threads, Tracer& tr, Output& out) {
  Runtime rt;
  const Network net = make_k_network({4, 4}, rt);
  ConcurrentNetwork cn(net);
  cn.enable_visit_probe();
  const auto width = static_cast<std::uint64_t>(net.width());
  {
    ScopedSpan s(&tr, "sim.ConcurrentNetwork::traverse");
    const std::vector<int> cpus = scbench::allowed_cpus();
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < threads; ++t) {
      clients.emplace_back([&, t] {
        scbench::pin_current_thread(cpus[t % cpus.size()]);
        for (std::uint64_t k = 0; k < kProbeTokensPerClient; ++k) {
          (void)cn.traverse(static_cast<Wire>((t + k) % width));
        }
      });
    }
    for (auto& c : clients) c.join();
  }
  const double tokens = static_cast<double>(threads * kProbeTokensPerClient);
  const std::vector<std::uint64_t> visits = cn.gate_visits();
  std::uint64_t sum = 0, hottest = 0;
  for (const std::uint64_t v : visits) {
    sum += v;
    hottest = std::max(hottest, v);
  }
  const std::vector<Count> exits = cn.output_counts();
  Count exited = 0;
  for (const Count c : exits) exited += c;
  out.check(is_step(exits) && static_cast<double>(exited) == tokens);
  out.add("sim.balancers_per_token", ratio(static_cast<double>(sum), tokens),
          "count", true);
  out.add("sim.hottest_gate_share", ratio(static_cast<double>(hottest), tokens),
          "ratio", true);
}

/// The same fixed schedule through a probe-enabled ShardManager, replayed
/// from one thread (client t's k-th call is the (k*threads + t)-th), so
/// the shard each token lands on, and hence every count, is exact.
bool probe_service_replay(std::size_t threads, Tracer& tr, Output& out) {
  Runtime rt;
  ShardManager mgr(ShardManager::Options{.shards = 4,
                                         .factors = {2, 2, 2, 2},
                                         .visit_probe = true,
                                         .dispatch_offset = 0},
                   rt);
  const std::uint64_t tokens = threads * kProbeTokensPerClient;
  std::vector<std::uint64_t> values;
  values.reserve(static_cast<std::size_t>(tokens));
  {
    ScopedSpan s(&tr, "service.ShardManager::next_on");
    for (std::uint64_t k = 0; k < kProbeTokensPerClient; ++k) {
      for (std::size_t t = 0; t < threads; ++t) {
        values.push_back(mgr.next_on(static_cast<Wire>(t + k)));
      }
    }
  }
  std::sort(values.begin(), values.end());
  bool exact = true;
  for (std::size_t i = 0; i < values.size(); ++i) exact &= values[i] == i;
  out.check(exact);
  bool linear = false;
  {
    ScopedSpan s(&tr, "service.ShardManager::verify_linearity");
    linear = mgr.verify_linearity().ok;
  }
  out.check(linear);
  std::uint64_t hottest = 0;
  Count max_shard = 0, total = 0;
  for (std::size_t sh = 0; sh < mgr.shard_count(); ++sh) {
    for (const std::uint64_t v : mgr.shard_gate_visits(sh)) {
      hottest = std::max(hottest, v);
    }
    Count shard_tokens = 0;
    for (const Count c : mgr.shard_output_counts(sh)) shard_tokens += c;
    max_shard = std::max(max_shard, shard_tokens);
    total += shard_tokens;
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(mgr.shard_count());
  out.add("service.shard_tokens_max_over_mean",
          ratio(static_cast<double>(max_shard), mean), "ratio", true);
  out.add("service.hottest_gate_share",
          ratio(static_cast<double>(hottest), static_cast<double>(tokens)),
          "ratio", true);
  return exact && linear;
}

void probe_counting(std::size_t threads, std::uint64_t seed,
                    std::int64_t budget_ns, Tracer& tr, Output& out) {
  const std::int64_t slice = budget_ns / 9;
  const TeamResult net_n = drive_counter<NetworkCounter>(
      network_counter_spec(), threads, seed, 2 * slice, "probe.count_nproc",
      tr, out);
  const TeamResult net_1 = drive_counter<NetworkCounter>(
      network_counter_spec(), 1, seed, 2 * slice, "probe.count_1t", tr, out);
  const TeamResult svc_n = drive_counter<CountingService>(
      counting_service_spec(), threads, seed, 2 * slice, "probe.service_nproc",
      tr, out);
  const TeamResult svc_1 = drive_counter<CountingService>(
      counting_service_spec(), 1, seed, 2 * slice, "probe.service_1t", tr,
      out);
  const TeamResult atomic = drive_counter<AtomicCounter>(
      atomic_counter_spec(), threads, seed, slice, "probe.atomic_nproc", tr,
      out);
  const auto n = static_cast<double>(threads);

  out.add("count.ops_per_s", net_n.ops_per_s, "1/s");
  out.add("count.ops_per_s_1t", net_1.ops_per_s, "1/s");
  out.add("count.scaling_eff", ratio(net_n.ops_per_s, n * net_1.ops_per_s),
          "ratio");
  out.add("count.thread_ops_min_over_max", net_n.thread_ops_min_over_max,
          "ratio");
  probe_sim(threads, tr, out);
  const bool replay_ok = probe_service_replay(threads, tr, out);
  out.add("service.ops_per_s", svc_n.ops_per_s, "1/s");
  out.add("service.ops_per_s_1t", svc_1.ops_per_s, "1/s");
  out.add("service.scaling_eff", ratio(svc_n.ops_per_s, n * svc_1.ops_per_s),
          "ratio");
  out.add("service.linearity_ok",
          replay_ok && svc_n.verified && svc_1.verified ? 1.0 : 0.0, "bool");
  out.add("baseline.atomic_ops_per_s", atomic.ops_per_s, "1/s");
  out.add("baseline.network_over_atomic",
          ratio(net_n.ops_per_s, atomic.ops_per_s), "ratio");
}

constexpr std::array<const char*, 4> kBackendNames = {"scalar", "batch",
                                                      "simd", "threaded"};

/// `engine.backend.<name>.dispatches` from metrics_snapshot(), in
/// kBackendNames order.
std::vector<std::uint64_t> dispatch_counts() {
  std::vector<std::uint64_t> counts;
  const obs::MetricsSnapshot snap = metrics_snapshot();
  for (const char* b : kBackendNames) {
    const std::string name = std::string("engine.backend.") + b + ".dispatches";
    std::uint64_t v = 0;
    for (const auto& m : snap) {
      if (m.name == name) v = m.value;
    }
    counts.push_back(v);
  }
  return counts;
}

/// The counter study behind NOTES.md: AtomicCounter and K(4x4)'s
/// NetworkCounter through the same pinned client team at 1, 2, nproc and
/// 2 x nproc threads (two clients per CPU), each for about `seconds`.
int counter_study(double seconds) {
  const std::size_t n = scbench::allowed_cpus().size();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  Tracer tr;
  Output checks;
  std::printf("%-10s %8s %14s %16s\n", "counter", "threads", "ops_per_s",
              "ops_min_over_max");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, n, 2 * n}) {
    const TeamResult atomic = drive_counter<AtomicCounter>(
        atomic_counter_spec(), threads, 1, budget, "study.atomic", tr, checks);
    std::printf("%-10s %8zu %14.0f %16.3f\n", "atomic", threads,
                atomic.ops_per_s, atomic.thread_ops_min_over_max);
    const TeamResult network = drive_counter<NetworkCounter>(
        network_counter_spec(), threads, 1, budget, "study.network", tr,
        checks);
    std::printf("%-10s %8zu %14.0f %16.3f\n", "K(4x4)", threads,
                network.ops_per_s, network.thread_ops_min_over_max);
  }
  std::printf("checked %" PRIu64 " values, %" PRIu64 " wrong\n",
              checks.attempted, checks.failed);
  return checks.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Entry point.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string study;  // "counters": run counter_study() instead
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc % 2 == 0) throw std::invalid_argument("every flag takes a value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value != "0";
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else if (key == "--study") {
      a.study = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

void print_json(const Args& a, std::size_t threads, std::uint64_t input_hash,
                const Output& out) {
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"trace\": %d, \"threads\": %zu, \"input_hash\": \"%016" PRIx64
              "\", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              scbench::json_escape(a.workload).c_str(), a.seed,
              a.trace ? 1 : 0, threads, input_hash, out.attempted, out.failed);
  const char* sep = "";
  for (const auto& m : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                scbench::json_escape(m.name).c_str(),
                std::isfinite(m.value) ? m.value : 0.0,
                scbench::json_escape(m.unit).c_str());
    sep = ", ";
  }
  std::printf("}, \"exact\": [");
  sep = "";
  for (const auto& e : out.exact) {
    std::printf("%s\"%s\"", sep, scbench::json_escape(e).c_str());
    sep = ", ";
  }
  std::printf("], \"info\": {");
  sep = "";
  for (const auto& [k, v] : out.info) {
    std::printf("%s\"%s\": %s", sep, scbench::json_escape(k).c_str(),
                v.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

int run(const Args& a) {
  const std::size_t threads = scbench::allowed_cpus().size();
  const std::unique_ptr<Workload> w = make_workload(a.workload, threads, a.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const auto budget = static_cast<std::int64_t>(a.seconds * 1e9);
  Output out;
  std::unique_ptr<Tracer> tracer = a.trace ? std::make_unique<Tracer>() : nullptr;

  std::vector<double> setup_s;
  const auto setup_batch = [&] {
    const std::int64_t end =
        now_ns() + share_ns(budget, kSetupShare / (kChunks + 1));
    for (std::size_t n = 0;
         n < kMinSetups || (n < kMaxSetups && now_ns() < end); ++n) {
      setup_s.push_back(w->setup(tracer.get(), setup_s.empty()));
    }
  };
  // Engine dispatches are counted around loop() only, so the set-ups and
  // the quiescent checks between chunks stay out of them.
  std::vector<std::uint64_t> dispatched(kBackendNames.size(), 0);
  std::uint64_t loop_calls = 0;
  const auto timed_loop = [&](std::int64_t ns, Tracer* tr,
                              std::vector<double>& rates) {
    const auto before = dispatch_counts();
    const std::uint64_t calls_before = w->calls();
    w->loop(ns, tr, rates);
    const auto after = dispatch_counts();
    for (std::size_t b = 0; b < dispatched.size(); ++b) {
      dispatched[b] += after[b] - before[b];
    }
    loop_calls += w->calls() - calls_before;
  };

  setup_batch();
  std::vector<double> warm;
  w->loop(share_ns(budget, 0.05), nullptr, warm);  // caches, pool, pages
  w->discard_latencies();

  if (!a.trace) {
    std::vector<double> rates;
    for (int chunk = 0; chunk < kChunks; ++chunk) {
      setup_batch();
      timed_loop(budget / kChunks, nullptr, rates);
      w->verify_quiescent();
    }
    // Read before the latency samples are copied out for the statistics, so
    // the peak is the workload's, not this summary's.
    const double rss = scbench::peak_rss_mb();
    const std::vector<double> lat = w->latencies();
    out.add("ops_per_s", scbench::median(rates), "1/s");
    out.add("latency_p50_ns", scbench::central_median(lat), "ns");
    out.add("setup_s", scbench::interquartile_mean(setup_s), "s");
    out.add("peak_rss_mb", rss, "MB");
    out.attempted = w->attempted;
    out.failed = w->failed;
    out.add("success_rate",
            1.0 - ratio(static_cast<double>(out.failed),
                        static_cast<double>(out.attempted)),
            "ratio");
    out.note("rounds", static_cast<double>(rates.size()));
    out.note("latency_samples", static_cast<double>(w->latency_samples()));
    out.note("calls", static_cast<double>(w->calls()));
    out.note("setup_reps", static_cast<double>(setup_s.size()));
  } else {
    Tracer& tr = *tracer;
    // Alternate untraced and traced chunks so drift hits both alike.
    std::vector<double> untraced, traced;
    for (int chunk = 0; chunk < kChunks; ++chunk) {
      setup_batch();
      const bool traced_chunk = chunk % 2 == 1;
      timed_loop(budget / (2 * kChunks), traced_chunk ? &tr : nullptr,
                 traced_chunk ? traced : untraced);
      w->verify_quiescent();
    }
    const double calls = static_cast<double>(loop_calls);
    const std::vector<double> lat = w->latencies();
    out.add("tail.latency_p99_ns", scbench::quantile(lat, 0.99), "ns");
    out.add("tail.latency_samples", static_cast<double>(lat.size()), "count");
    const double u = scbench::median(untraced);
    const double t = scbench::median(traced);
    out.add("obs.untraced_ops_per_s", u, "1/s");
    out.add("obs.traced_ops_per_s", t, "1/s");
    out.add("obs.trace_overhead_frac", 1.0 - ratio(t, u), "ratio");
    for (std::size_t b = 0; b < dispatched.size(); ++b) {
      out.add(std::string("engine.dispatches.") + kBackendNames[b],
              ratio(static_cast<double>(dispatched[b]), calls), "per_call",
              true);
    }
    out.attempted = w->attempted;
    out.failed = w->failed;

    probe_structure(*w, threads, tr, out);
    probe_engine(threads, a.seed, share_ns(budget, 0.05), tr, out);
    probe_scalar(threads, a.seed, share_ns(budget, 0.03), tr, out);
    probe_counting(threads, a.seed, share_ns(budget, 0.36), tr, out);

    out.note("obs.trace_overhead_frac.base",
             "1 - traced/untraced median round ops_per_s of the workload loop "
             "in this process (obs.traced_ops_per_s, obs.untraced_ops_per_s)");
    out.note("spans_recorded", static_cast<double>(tr.span_count()));
    out.note("spans_dropped", static_cast<double>(tr.dropped()));
    std::string summary;
    for (const auto& s : tr.summarize()) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s%s x%" PRIu64 " total %.0f ns self %.0f ns",
                    summary.empty() ? "" : "; ", s.name.c_str(), s.count,
                    s.total_ns, s.self_ns);
      summary += buf;
    }
    out.note("span_self_times", summary);
    if (!a.trace_out.empty()) {
      const bool ok = tr.write_chrome_trace(a.trace_out);
      out.note("trace_file", ok ? a.trace_out : "(write failed)");
    }
  }
  print_json(a, threads, w->input_hash(), out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.study == "counters") return counter_study(args.seconds);
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scbench: %s\n", e.what());
    return 1;
  }
}
