// E-CONSTRUCT — construction throughput and the module cache.
//
// The Module IR interns every sub-network template (T, D, S, M, C, R) the
// constructions instantiate, so building L(w) decomposes into one cold
// template build per distinct parameterization plus flat gate stamping.
// This harness measures, for L across widths:
//
//   cold  cache cleared first: template builds + stamping (what the first
//         construction on a runtime pays)
//   warm  templates resident: pure stamping
//
// Each phase runs against its own private scn::Runtime, so the numbers are
// order-independent: nothing this process built earlier (and nothing a
// phase builds) leaks warm templates into another phase's cache.
//
// The preamble emits BENCH_construct.json and the process exits non-zero
// if warm construction is not at least kMinWarmSpeedup x faster than cold
// construction at every width — CI runs this binary with
// --benchmark_filter=^$ as a construction-time regression gate. That the
// stamped networks are gate-for-gate the pre-IR ones is pinned by
// tests/module_golden_test.cpp.
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/factorization.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "core/module.h"
#include "runtime/runtime.h"

namespace {

using namespace scn;

// Stamping resident templates must beat building them; in practice warm
// builds are several times faster, so a shortfall below this factor means
// the stamp path regressed.
constexpr double kMinWarmSpeedup = 1.5;

// Construction timings amortize less than throughput loops; take two
// extra reps over the shared default.
double best_time(const std::function<void()>& fn) {
  return bench::best_time(fn, 5);
}

struct Measurement {
  std::string label;
  std::size_t width = 0;
  std::size_t gates = 0;
  std::uint32_t depth = 0;
  double cold_s = 0;  // cache cleared before the build
  double warm_s = 0;  // templates resident
  std::size_t templates = 0;       // interned entries after a cold build
  std::size_t template_bytes = 0;  // their storage footprint
};

Measurement measure(const std::vector<std::size_t>& factors) {
  Measurement m;
  m.label = "L(" + format_factors(factors) + ")";

  // Fresh Runtimes per phase: the cold phase starts from an empty cache on
  // every rep, and the warm phase is warmed by exactly one build —
  // regardless of what ran before.
  Runtime cold_rt;
  m.cold_s = best_time([&] {
    cold_rt.module_cache().clear();
    benchmark::DoNotOptimize(make_l_network(factors, cold_rt));
  });

  Runtime warm_rt;
  const Network warm_net =
      make_l_network(factors, warm_rt);  // leave templates hot
  m.width = warm_net.width();
  m.gates = warm_net.gate_count();
  m.depth = warm_net.depth();
  const ModuleCacheStats stats = warm_rt.module_cache().stats();
  m.templates = stats.entries;
  m.template_bytes = stats.bytes;
  m.warm_s = best_time([&] {
    benchmark::DoNotOptimize(make_l_network(factors, warm_rt));
  });
  return m;
}

bool warm_ok(const Measurement& m) {
  return m.cold_s >= kMinWarmSpeedup * m.warm_s;
}

void emit_report(const std::vector<Measurement>& ms) {
  bench::print_header(
      "E-CONSTRUCT  Module cache construction throughput",
      "warm (stamped) builds of L(w) vs cold builds on a cleared cache");
  std::printf("%-12s %5s %6s %4s | %10s %10s | %6s %9s | %6s\n", "network",
              "w", "gates", "d", "cold (us)", "warm (us)", "tmpls", "bytes",
              "x");
  bench::print_row_rule();
  bench::JsonReport report("BENCH_construct.json",
                           "module_cache_construction");
  bool all_pass = true;
  for (const Measurement& m : ms) {
    const bool pass = warm_ok(m);
    all_pass = all_pass && pass;
    const double speedup = m.cold_s / m.warm_s;
    std::printf("%-12s %5zu %6zu %4u | %10.1f %10.1f | %6zu %9zu | %5.1fx %s\n",
                m.label.c_str(), m.width, m.gates, m.depth, m.cold_s * 1e6,
                m.warm_s * 1e6, m.templates, m.template_bytes, speedup,
                bench::mark(pass));
    report.begin_row();
    report.kv("network", m.label);
    report.kv("width", static_cast<std::uint64_t>(m.width));
    report.kv("gates", static_cast<std::uint64_t>(m.gates));
    report.kv("depth", static_cast<std::uint64_t>(m.depth));
    report.kv("cold_us", m.cold_s * 1e6);
    report.kv("warm_us", m.warm_s * 1e6);
    report.kv("templates", static_cast<std::uint64_t>(m.templates));
    report.kv("template_bytes",
              static_cast<std::uint64_t>(m.template_bytes));
    report.kv("min_warm_speedup", kMinWarmSpeedup);
    report.kv("warm_speedup", speedup);
    report.kv("pass", pass);
    report.end_row();
  }
  report.finish(all_pass);
  std::printf("\n");
}

// --- google-benchmark timing loops -----------------------------------

void BM_ConstructL720Warm(benchmark::State& state) {
  Runtime rt;
  (void)make_l_network({8, 9, 10}, rt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_l_network({8, 9, 10}, rt));
  }
}
BENCHMARK(BM_ConstructL720Warm)->Unit(benchmark::kMillisecond);

void BM_ConstructK64Warm(benchmark::State& state) {
  Runtime rt;
  (void)make_k_network({4, 4, 4}, rt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_k_network({4, 4, 4}, rt));
  }
}
BENCHMARK(BM_ConstructK64Warm)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::vector<Measurement> ms;
  ms.push_back(measure({2, 3, 4}));    // w = 24
  ms.push_back(measure({4, 4, 4}));    // w = 64
  ms.push_back(measure({4, 5, 7}));    // w = 140
  ms.push_back(measure({6, 8, 9}));    // w = 432
  ms.push_back(measure({8, 9, 10}));   // w = 720
  emit_report(ms);
  bool all_ok = true;
  for (const Measurement& m : ms) all_ok = all_ok && warm_ok(m);
  if (!all_ok) {
    std::fprintf(stderr,
                 "CONSTRUCTION REGRESSION: warm (stamped) builds are not "
                 "%.1fx faster than cold builds\n",
                 kMinWarmSpeedup);
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
