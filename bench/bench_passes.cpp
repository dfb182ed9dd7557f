// E-OPT — the canonical pass pipeline and the compiled-plan cache.
//
// Three questions, one table per network (K / L / bitonic / batcher at
// widths 24-120, plus a deliberately redundant composed network):
//
//   1. What does the pipeline remove?  gates/layers before vs after the
//      `default` level (comparator semantics).
//   2. What does the cache save at compile time?  pipeline + plan
//      compilation on a cold cache (miss) vs a warm lookup (hit).
//   3. What does that mean end to end?  vectors/sec for a 512-vector
//      batch when every call re-optimizes vs when the plan is cached.
//
// The preamble emits BENCH_passes.json and the process exits non-zero if
// the `default` pipeline ever INCREASES depth — CI runs this binary with
// --benchmark_filter=^$ as a depth-regression gate.
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <random>

#include "baseline/batcher.h"
#include "baseline/bitonic.h"
#include "baseline/bubble.h"
#include "bench_common.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "engine/batch_engine.h"
#include "engine/execution_plan.h"
#include "net/transform.h"
#include "opt/pass.h"
#include "opt/plan_cache.h"
#include "runtime/runtime.h"
#include "seq/generators.h"

namespace {

using namespace scn;

constexpr std::size_t kBatch = 512;

using bench::best_time;

struct Measurement {
  const char* network;
  std::size_t width;
  std::size_t gates;
  std::uint32_t depth;
  std::size_t gates_default;    // gate count after the default pipeline
  std::uint32_t depth_default;  // depth after the default pipeline
  double compile_miss_s;  // optimize + compile, cold cache
  double compile_hit_s;   // warm cache lookup
  double e2e_miss_vps;    // batch sort, re-optimizing every call
  double e2e_hit_vps;     // batch sort through the cache
};

Measurement measure(const char* name, const Network& net) {
  Measurement m{};
  m.network = name;
  m.width = net.width();
  m.gates = net.gate_count();
  m.depth = net.depth();

  const PipelineResult dflt = optimize_network(net, PassLevel::kDefault);
  m.gates_default = dflt.network.gate_count();
  m.depth_default = dflt.network.depth();

  PlanCache cache(8);
  m.compile_miss_s = best_time([&] {
    cache.clear();
    benchmark::DoNotOptimize(cache.compiled(net, PassLevel::kDefault));
  });
  (void)cache.compiled(net, PassLevel::kDefault);
  // A hit is far below clock resolution; amortize over many lookups.
  constexpr int kLookups = 2000;
  m.compile_hit_s = best_time([&] {
                      for (int i = 0; i < kLookups; ++i) {
                        benchmark::DoNotOptimize(
                            cache.compiled(net, PassLevel::kDefault));
                      }
                    }) /
                    kLookups;

  const auto inputs = bench::random_inputs(net.width(), kBatch, 1234);
  const auto n = static_cast<double>(kBatch);
  PlanCache e2e_cache(8);
  const double t_miss = best_time([&] {
    e2e_cache.clear();  // every call pays pipeline + plan compilation
    const CachedPlan cached = e2e_cache.compiled(net, PassLevel::kDefault);
    benchmark::DoNotOptimize(plan_sort_batch(*cached.plan, inputs));
  });
  (void)e2e_cache.compiled(net, PassLevel::kDefault);
  const double t_hit = best_time([&] {
    const CachedPlan cached = e2e_cache.compiled(net, PassLevel::kDefault);
    benchmark::DoNotOptimize(plan_sort_batch(*cached.plan, inputs));
  });
  m.e2e_miss_vps = n / t_miss;
  m.e2e_hit_vps = n / t_hit;
  return m;
}

/// True iff the default pipeline kept its bound (the regression CI gates
/// on): never above construction depth.
bool depth_ok(const Measurement& m) { return m.depth_default <= m.depth; }

void emit_report(const std::vector<Measurement>& ms) {
  bench::print_header(
      "E-OPT  Pass pipeline + compiled-plan cache",
      "default pipeline never increases depth; cache removes recompilation");
  std::printf("%-18s %5s %6s %4s | %6s %4s | %10s %10s %8s\n", "network",
              "w", "gates", "d", "g:dflt", "d", "miss (us)", "hit (us)",
              "e2e x");
  bench::print_row_rule();
  bench::JsonReport report("BENCH_passes.json", "pass_pipeline");
  bool all_pass = true;
  for (const Measurement& m : ms) {
    const bool pass = depth_ok(m);
    all_pass = all_pass && pass;
    const double cache_speedup = m.compile_miss_s / m.compile_hit_s;
    const double e2e_speedup = m.e2e_hit_vps / m.e2e_miss_vps;
    std::printf("%-18s %5zu %6zu %4u | %6zu %4u | %10.1f %10.3f %7.2fx %s\n",
                m.network, m.width, m.gates, m.depth, m.gates_default,
                m.depth_default, m.compile_miss_s * 1e6,
                m.compile_hit_s * 1e6, e2e_speedup, bench::mark(pass));
    report.begin_row();
    report.kv("network", m.network);
    report.kv("width", static_cast<std::uint64_t>(m.width));
    report.kv("gates", static_cast<std::uint64_t>(m.gates));
    report.kv("depth", static_cast<std::uint64_t>(m.depth));
    report.kv("batch_size", static_cast<std::uint64_t>(kBatch));
    report.kv("default_gates", static_cast<std::uint64_t>(m.gates_default));
    report.kv("default_depth", static_cast<std::uint64_t>(m.depth_default));
    report.kv("gates_removed",
              static_cast<std::uint64_t>(m.gates - m.gates_default));
    report.kv("layers_removed",
              static_cast<std::uint64_t>(m.depth - m.depth_default));
    report.kv("compile_miss_us", m.compile_miss_s * 1e6);
    report.kv("compile_hit_us", m.compile_hit_s * 1e6);
    report.kv("cache_compile_speedup", cache_speedup);
    report.kv("e2e_miss_vps", m.e2e_miss_vps);
    report.kv("e2e_hit_vps", m.e2e_hit_vps);
    report.kv("e2e_cached_speedup", e2e_speedup);
    report.kv("depth_ok", pass);
    report.end_row();
  }
  report.finish(all_pass);
  std::printf("\n");
}

// --- google-benchmark timing loops -----------------------------------

const Network& batcher120() {
  static const Network net = make_batcher_network(120);
  return net;
}

void BM_OptimizeDefaultBatcher120(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimize_network(batcher120(), PassLevel::kDefault));
  }
}
BENCHMARK(BM_OptimizeDefaultBatcher120)->Unit(benchmark::kMillisecond);

void BM_StructuralHashBatcher120(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(structural_hash(batcher120()));
  }
}
BENCHMARK(BM_StructuralHashBatcher120)->Unit(benchmark::kMicrosecond);

void BM_CacheHitLookupBatcher120(benchmark::State& state) {
  PlanCache cache(4);
  (void)cache.compiled(batcher120(), PassLevel::kDefault);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.compiled(batcher120(), PassLevel::kDefault));
  }
}
BENCHMARK(BM_CacheHitLookupBatcher120)->Unit(benchmark::kMicrosecond);

void BM_CacheMissCompileK100(benchmark::State& state) {
  Runtime rt;  // fresh runtime: construction never touches the shared caches
  const Network net = make_k_network({4, 5, 5}, rt);
  PlanCache cache(4);
  for (auto _ : state) {
    cache.clear();
    benchmark::DoNotOptimize(cache.compiled(net, PassLevel::kDefault));
  }
}
BENCHMARK(BM_CacheMissCompileK100)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::vector<Measurement> ms;
  // Each measured network is built against its own fresh Runtime (and
  // measure() uses private PlanCaches), so no phase warms state another
  // phase observes: BENCH_passes.json is order-independent.
  {
    Runtime rt;
    ms.push_back(measure("K(2x3x4)", make_k_network({2, 3, 4}, rt)));
  }
  {
    Runtime rt;
    ms.push_back(measure("K(4x5x5)", make_k_network({4, 5, 5}, rt)));
  }
  {
    Runtime rt;
    ms.push_back(measure("L(2x3x4)", make_l_network({2, 3, 4}, rt)));
  }
  {
    Runtime rt;
    ms.push_back(measure("L(4x4x4)", make_l_network({4, 4, 4}, rt)));
  }
  ms.push_back(measure("bitonic32", make_bitonic_network(5)));
  ms.push_back(measure("batcher120", batcher120()));
  // A redundant composition: a full sorter followed by another sorting
  // pass. zero-one-elim should strip the entire second sorter. (Width 16
  // keeps it within the default exhaustive 0-1 width cap.)
  ms.push_back(measure("batcher16+bubble",
                       compose(make_batcher_network(16),
                               make_bubble_network(16))));
  emit_report(ms);
  bool all_ok = true;
  for (const Measurement& m : ms) all_ok = all_ok && depth_ok(m);
  if (!all_ok) {
    std::fprintf(stderr,
                 "DEPTH REGRESSION: the default pipeline increased depth on "
                 "at least one network\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
