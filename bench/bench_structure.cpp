// Structural anatomy tables: per-layer profiles, wire utilization and
// occupancy for the main constructions at width 64 — the data a hardware
// or shared-memory deployment sizes against — plus a construction-
// throughput section (builds/sec with the module cache's templates
// resident vs built afresh; bench_construct has the full sweep and the CI
// gate).
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>

#include "baseline/batcher.h"
#include "baseline/bitonic.h"
#include "bench_common.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "net/analyze.h"
#include "runtime/runtime.h"

namespace {

using namespace scn;

void print_profile(const char* name, const Network& net) {
  const auto util = wire_utilization(net);
  std::printf("%-12s depth=%2u gates=%4zu occupancy=%.2f wire-load "
              "min/mean/max = %zu/%.1f/%zu\n",
              name, net.depth(), net.gate_count(), occupancy(net),
              util.min_gates, util.mean_gates, util.max_gates);
  std::printf("  layer profile (gates@maxwidth): ");
  for (const auto& p : layer_profiles(net)) {
    std::printf("%zu@%zu ", p.gates, p.max_gate_width);
  }
  std::printf("\n");
  const auto path = critical_path(net);
  std::printf("  critical path gate widths: ");
  for (const std::size_t gi : path) {
    std::printf("%u ", net.gates()[gi].width);
  }
  std::printf("\n\n");
}

void print_table() {
  bench::print_header("Structural anatomy at width 64",
                      "layer-by-layer gate counts and widths per "
                      "construction");
  print_profile("K(8x8)", make_k_network({8, 8}));
  print_profile("K(4x4x4)", make_k_network({4, 4, 4}));
  print_profile("K(2^6)", make_k_network({2, 2, 2, 2, 2, 2}));
  print_profile("L(4x4x4)", make_l_network({4, 4, 4}));
  print_profile("bitonic64", make_bitonic_network(6));
  print_profile("batcher64", make_batcher_network(64));
}

/// Builds per second of `build` on `rt`; `cold` clears the runtime's
/// caches before every build, so each one builds its templates afresh.
double builds_per_second(const std::function<Network(Runtime&)>& build,
                         Runtime& rt, bool cold) {
  // Time enough builds to clear clock resolution even for tiny widths.
  constexpr int kReps = 50;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kReps; ++i) {
    if (cold) rt.clear_caches();
    benchmark::DoNotOptimize(build(rt));
  }
  const auto t1 = std::chrono::steady_clock::now();
  return kReps / std::chrono::duration<double>(t1 - t0).count();
}

void print_construction_throughput() {
  bench::print_header("Construction throughput at width 64",
                      "builds/sec: stamping resident templates (warm) vs "
                      "building them on a cleared cache (cold)");
  const struct {
    const char* name;
    std::function<Network(Runtime&)> build;
  } rows[] = {
      {"K(4x4x4)", [](Runtime& rt) { return make_k_network({4, 4, 4}, rt); }},
      {"K(2^6)",
       [](Runtime& rt) { return make_k_network({2, 2, 2, 2, 2, 2}, rt); }},
      {"L(4x4x4)", [](Runtime& rt) { return make_l_network({4, 4, 4}, rt); }},
  };
  std::printf("%-12s %14s %14s %8s\n", "network", "warm/s", "cold/s",
              "speedup");
  bench::print_row_rule();
  for (const auto& row : rows) {
    Runtime rt;
    const double cold = builds_per_second(row.build, rt, /*cold=*/true);
    (void)row.build(rt);  // leave the templates resident
    const double warm = builds_per_second(row.build, rt, /*cold=*/false);
    std::printf("%-12s %14.0f %14.0f %7.1fx\n", row.name, warm, cold,
                warm / cold);
  }
  std::printf("\n");
}

void BM_Analyze(benchmark::State& state) {
  const Network net = make_l_network({4, 4, 4});
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer_profiles(net).size());
    benchmark::DoNotOptimize(critical_path(net).size());
  }
}
BENCHMARK(BM_Analyze);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  print_construction_throughput();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
