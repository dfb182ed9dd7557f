// E-SVC — the sharded counting service under saturation: millions of
// increments through 1/2/4/8 shards vs a single network of the same TOTAL
// width vs the atomic / mutex baselines, across thread counts and arrival
// schedules.
//
// The comparison is depth-for-depth honest: S shards of width-16 K(2^4)
// are matched against ONE width-16*S network built from 2-balancers, so
// both spread load over the same number of wires — but the single network
// pays depth(16*S) fetch-adds per token while a shard token pays
// depth(16) + 1 (the dispatch word). That is the composition payoff the
// service exists for, and it holds even time-sliced on one core.
//
// After every measured run the harness quiesces and verifies counter
// linearity (ShardManager::verify_linearity(): each value handed out
// exactly once) and the step property of every shard's outputs. The
// preamble emits BENCH_service.json with the throughput-vs-threads curves
// and exits non-zero if verification fails or the regression gate does
// (the 4-shard service must beat the matched single network at max
// threads), so CI can run the binary as a gate. The mutex comparisons are
// printed for information only.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/k_network.h"
#include "count/fetch_inc.h"
#include "runtime/runtime.h"
#include "service/saturate.h"
#include "service/shard_manager.h"
#include "verify/checkers.h"

namespace {

using namespace scn;

constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};
constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr std::uint64_t kTokensPerThread = 40000;

// A single counting network with the same total width as `shards` shards
// of K(2^4): width 16*S from 2-balancers (the classic construction), the
// fair "one big network" alternative to sharding.
const Network& matched_network(std::size_t shards) {
  static std::vector<std::unique_ptr<Network>> cache(9);
  if (cache[shards] == nullptr) {
    std::size_t log2w = 4;  // 16 = 2^4
    for (std::size_t s = shards; s > 1; s >>= 1) ++log2w;
    cache[shards] = std::make_unique<Network>(
        make_k_network(std::vector<std::size_t>(log2w, 2)));
  }
  return *cache[shards];
}

double measure_counter(FetchIncCounter& counter, std::size_t threads,
                       std::uint64_t tokens_per_thread) {
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < tokens_per_thread; ++i) {
        benchmark::DoNotOptimize(counter.next());
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  return seconds > 0 ? static_cast<double>(tokens_per_thread * threads) /
                           seconds
                     : 0.0;
}

struct Curves {
  // tokens/sec indexed by [impl][thread index]; impls are the sharded
  // services, then matched single networks, then atomic, then mutex.
  std::vector<std::string> names;
  std::vector<std::vector<double>> tps;
  bool verified = true;
  std::string failure;
};

Curves measure_all() {
  Curves curves;
  // Sharded service, S in {1, 2, 4, 8}.
  for (const std::size_t shards : kShardCounts) {
    std::vector<double> row;
    for (const std::size_t threads : kThreadCounts) {
      Runtime rt;
      ShardManager service(ShardManager::Options{.shards = shards}, rt);
      SaturationOptions opts;
      opts.threads = threads;
      opts.tokens_per_thread = kTokensPerThread;
      const SaturationResult res = run_saturation(service, opts);
      if (!res.linearity.ok) {
        curves.verified = false;
        curves.failure = "sharded S=" + std::to_string(shards) + " x" +
                         std::to_string(threads) + ": " +
                         res.linearity.detail;
      }
      row.push_back(res.tokens_per_second());
    }
    curves.names.push_back("sharded" + std::to_string(shards) + "xK(2^4)");
    curves.tps.push_back(std::move(row));
  }
  // Matched-total-width single networks.
  for (const std::size_t shards : kShardCounts) {
    const Network& net = matched_network(shards);
    std::vector<double> row;
    for (const std::size_t threads : kThreadCounts) {
      NetworkCounter counter(net);
      row.push_back(measure_counter(counter, threads, kTokensPerThread));
    }
    curves.names.push_back("single-w" + std::to_string(net.width()));
    curves.tps.push_back(std::move(row));
  }
  // Flat baselines.
  for (int which = 0; which < 2; ++which) {
    std::vector<double> row;
    for (const std::size_t threads : kThreadCounts) {
      std::unique_ptr<FetchIncCounter> counter;
      if (which == 0) {
        counter = std::make_unique<AtomicCounter>();
      } else {
        counter = std::make_unique<MutexCounter>();
      }
      row.push_back(measure_counter(*counter, threads, kTokensPerThread));
    }
    curves.names.push_back(which == 0 ? "atomic" : "mutex");
    curves.tps.push_back(std::move(row));
  }
  return curves;
}

int emit_report(const Curves& curves) {
  bench::print_header(
      "E-SVC  Sharded counting service saturation (tokens/sec)",
      "S shards of K(2^4) pay depth 12 + 1 per token; one matched-width "
      "network of 2-balancers pays its full depth — sharding wins");
  std::printf("%-18s", "impl");
  for (const std::size_t threads : kThreadCounts) {
    std::printf(" %11s",
                std::string("x").append(std::to_string(threads)).c_str());
  }
  std::printf("\n");
  bench::print_row_rule();

  bench::JsonReport report("BENCH_service.json", "service_saturation");
  for (std::size_t i = 0; i < curves.names.size(); ++i) {
    std::printf("%-18s", curves.names[i].c_str());
    for (std::size_t j = 0; j < curves.tps[i].size(); ++j) {
      std::printf(" %11.0f", curves.tps[i][j]);
      report.begin_row();
      report.kv("impl", curves.names[i]);
      report.kv("threads", static_cast<std::uint64_t>(kThreadCounts[j]));
      report.kv("tokens_per_sec", curves.tps[i][j]);
      report.end_row();
    }
    std::printf("\n");
  }
  std::printf("\n");

  // Gates, at the highest thread count. The sharded-vs-single comparison
  // is per-token depth (13 fetch-adds vs 35), so it holds on any host. The
  // mutex comparisons are informational: the paper makes no claim against
  // locks, and on a 4-vCPU host the mutex outruns every network here (at
  // x8, 8.4-12.0M tokens/s against sharded4's 2.5-3.1M).
  const std::size_t last = std::size(kThreadCounts) - 1;
  auto tps_of = [&](const std::string& name) {
    for (std::size_t i = 0; i < curves.names.size(); ++i) {
      if (curves.names[i] == name) return curves.tps[i][last];
    }
    return 0.0;
  };
  const double sharded4 = tps_of("sharded4xK(2^4)");
  const double single64 = tps_of("single-w64");
  const double mutex_tps = tps_of("mutex");
  const bool gate_shard = sharded4 > single64;
  auto info = [](bool holds) {
    return holds ? "yes (informational: no claim against locks)"
                 : "no  (informational: no claim against locks)";
  };
  std::printf("gates at x%zu threads:\n", kThreadCounts[last]);
  std::printf("  sharded4 > single-w64   %12.0f vs %12.0f  %s\n", sharded4,
              single64, bench::mark(gate_shard));
  std::printf("  single-w64 > mutex      %12.0f vs %12.0f  %s\n", single64,
              mutex_tps, info(single64 > mutex_tps));
  std::printf("  sharded4 > mutex        %12.0f vs %12.0f  %s\n", sharded4,
              mutex_tps, info(sharded4 > mutex_tps));
  std::printf("  linearity + step        %s%s\n",
              bench::mark(curves.verified),
              curves.verified ? "" : (" (" + curves.failure + ")").c_str());

  const bool pass = gate_shard && curves.verified;
  return report.finish(pass) ? 0 : 1;
}

// Schedule sensitivity: the sharded service under every arrival schedule.
// Each iteration drives a fresh service, built (and the previous one
// destroyed) outside the timed region.
void BM_ServiceSchedule(benchmark::State& state) {
  const auto kind = static_cast<ScheduleKind>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  Runtime rt;
  SaturationOptions opts;
  opts.threads = threads;
  opts.tokens_per_thread = 5000;
  opts.schedule.kind = kind;
  std::optional<ShardManager> service;
  std::uint64_t tokens = 0;
  for (auto _ : state) {
    state.PauseTiming();
    service.emplace(ShardManager::Options{.shards = 4}, rt);
    state.ResumeTiming();
    const SaturationResult res = run_saturation(*service, opts);
    if (!res.linearity.ok) {
      state.SkipWithError(res.linearity.detail.c_str());
      return;
    }
    tokens += res.tokens;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tokens));
  state.SetLabel(std::string(to_string(kind)) + " x" +
                 std::to_string(threads));
}
BENCHMARK(BM_ServiceSchedule)
    ->ArgsProduct({{0, 1, 2, 3}, {1, 4}})
    ->MinTime(0.05)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  const int gate = emit_report(measure_all());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return gate;
}
