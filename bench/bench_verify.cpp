// Verifier engineering: scalar vs bit-plane exhaustive 0-1 checks and
// sequential vs parallel counting sweeps. The bit-plane path (the engine's
// layer walk over 64 test vectors per word) is what makes the mega-sweep
// tests and the width-32 proofs affordable.
//
// The preamble emits BENCH_verify.json: one row per verifier pair with
// the inputs-checked counts and verdict-agreement flags.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/k_network.h"
#include "verify/counting_verify.h"
#include "verify/fast_zero_one.h"
#include "verify/parallel_verify.h"

namespace {

using namespace scn;

void print_table() {
  bench::print_header("Verifier engineering",
                      "the bit-plane walk evaluates 64 0-1 inputs per "
                      "word, through the compiled plan");
  bench::JsonReport report("BENCH_verify.json", "verifier_engineering");

  const Network net = make_k_network({2, 3, 2});
  const auto slow = verify_sorting_exhaustive(net);
  const auto fast = fast_verify_sorting_exhaustive(net);
  const bool zero_one_agree =
      slow.ok == fast.ok && slow.inputs_checked == fast.inputs_checked;
  std::printf("width 12: scalar checked %llu, bit-plane checked %llu, "
              "verdicts agree: %s\n",
              static_cast<unsigned long long>(slow.inputs_checked),
              static_cast<unsigned long long>(fast.inputs_checked),
              bench::mark(zero_one_agree));
  report.begin_row();
  report.kv("pair", "scalar_vs_bit_plane_zero_one");
  report.kv("width", static_cast<std::uint64_t>(net.width()));
  report.kv("scalar_inputs_checked",
            static_cast<std::uint64_t>(slow.inputs_checked));
  report.kv("bit_plane_inputs_checked",
            static_cast<std::uint64_t>(fast.inputs_checked));
  report.kv("agree", zero_one_agree);
  report.end_row();

  const Network count_net = make_k_network({4, 4});
  const bool seq_ok = verify_counting(count_net).ok;
  Runtime two(Runtime::Options{.threads = 2});
  const bool par_ok = verify_counting_parallel(count_net, {}, two).ok;
  const bool counting_agree = seq_ok == par_ok;
  std::printf("width 16: sequential vs parallel counting verdicts agree: "
              "%s\n\n",
              bench::mark(counting_agree));
  report.begin_row();
  report.kv("pair", "sequential_vs_parallel_counting");
  report.kv("width", static_cast<std::uint64_t>(count_net.width()));
  report.kv("agree", counting_agree);
  report.end_row();

  report.finish(zero_one_agree && counting_agree);
  std::printf("\n");
}

void BM_ScalarExhaustive(benchmark::State& state) {
  const Network net = make_k_network({2, 3, 2});  // width 12
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_sorting_exhaustive(net).ok);
  }
}
BENCHMARK(BM_ScalarExhaustive);

void BM_BitPlaneExhaustive(benchmark::State& state) {
  const Network net = make_k_network({2, 3, 2});
  for (auto _ : state) {
    benchmark::DoNotOptimize(fast_verify_sorting_exhaustive(net).ok);
  }
}
BENCHMARK(BM_BitPlaneExhaustive);

void BM_BitPlaneWidth20(benchmark::State& state) {
  const Network net = make_k_network({5, 2, 2});
  for (auto _ : state) {
    benchmark::DoNotOptimize(fast_verify_sorting_exhaustive(net).ok);
  }
}
BENCHMARK(BM_BitPlaneWidth20)->Unit(benchmark::kMillisecond);

void BM_SequentialCountingVerify(benchmark::State& state) {
  const Network net = make_k_network({4, 4});
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_counting(net).ok);
  }
}
BENCHMARK(BM_SequentialCountingVerify);

void BM_ParallelCountingVerify(benchmark::State& state) {
  const Network net = make_k_network({4, 4});
  Runtime rt(
      Runtime::Options{.threads = static_cast<std::size_t>(state.range(0))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_counting_parallel(net, {}, rt).ok);
  }
}
BENCHMARK(BM_ParallelCountingVerify)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
