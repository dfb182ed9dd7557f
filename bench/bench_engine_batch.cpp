// E-ENG — compiled batch engine vs the per-gate interpreter.
//
// Sorts a large batch of random vectors through K / L / bitonic networks
// three ways: per-gate interpreter (apply_comparators, one vector at a
// time), serial plan_sort_batch, and plan_sort_batch on the runtime's
// pool. The headline number is vectors/sec; the acceptance bar for the
// engine is >= 3x interpreter throughput for serial plan_sort_batch on a
// width >= 24 network.
//
// Each (network, column) row runs on a fresh private Runtime, sorts
// through the network's compiled plan once untimed (so the threaded
// column does not time its pool's workers spawning) and then keeps the
// best of 3 runs; the interpreter row is timed the same way.
// Rows feed the acceptance gate, so they are measured one at a time.
//
// Two informational rows follow, each the median of 200 alternating calls
// in one process: pooled / serial plan_sort_batch on L(2^5) at 4096 lanes,
// each timed pooled call on a warm pool; and serial plan_sort_batch on the
// same plan with values that fit in 32 bits against the same values moved
// past that range, the cell where the 32-bit block walk must win to stay.
// Neither gates anything: on a shared 4-vCPU host threaded / batch read
// anywhere from 1.0x to 3.1x between runs, and the lane-type row decides
// whether code is kept, not whether a build passes. Every timed call's
// outputs are freed outside its timing, in the gated rows too.
//
// Besides the google-benchmark timings, the preamble emits
// BENCH_engine.json — a machine-readable report of the measured
// throughputs and speedups per network — and main() returns non-zero when
// any row misses the 3x bar.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "baseline/bitonic.h"
#include "bench_common.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "engine/batch_engine.h"
#include "engine/execution_plan.h"
#include "opt/plan_cache.h"
#include "perf/thread_pool.h"
#include "runtime/runtime.h"
#include "sim/comparator_sim.h"

namespace {

using namespace scn;

constexpr std::size_t kBatch = 4096;

struct NetworkCase {
  std::string name;
  std::function<Network(Runtime&)> build;
};

const std::vector<NetworkCase>& networks() {
  static const std::vector<NetworkCase> cases = {
      {"K(4x4x4)", [](Runtime& rt) { return make_k_network({4, 4, 4}, rt); }},
      {"K(2x3x4)", [](Runtime& rt) { return make_k_network({2, 3, 4}, rt); }},
      {"L(4x4x4)", [](Runtime& rt) { return make_l_network({4, 4, 4}, rt); }},
      {"bitonic32", [](Runtime&) { return make_bitonic_network(5); }},
  };
  return cases;
}

struct Measurement {
  std::string network;
  std::size_t width = 0;
  std::uint32_t depth = 0;
  double interp_vps = 0;    // vectors/sec, per-gate interpreter
  double batch_vps = 0;     // serial plan_sort_batch
  double threaded_vps = 0;  // plan_sort_batch on the runtime's pool
};

/// Best-of-3 vectors/sec of plan_sort_batch sorting kBatch random vectors
/// through the network, serially or on the pool of a fresh Runtime.
double plan_vps(const NetworkCase& c, bool pooled) {
  Runtime rt;
  const Network net = c.build(rt);
  const CachedPlan cached = rt.compiled(net);
  const auto inputs = bench::random_inputs(net.width(), kBatch, 99);
  ThreadPool* pool = pooled ? &rt.pool() : nullptr;
  std::vector<std::vector<Count>> out;
  const auto call = [&] { out = plan_sort_batch(*cached.plan, inputs, pool); };
  call();  // warm: the pooled column spawns its pool in its first call
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    out = {};  // the last call's outputs are freed outside the timing
    const double t = bench::time_once(call);
    benchmark::DoNotOptimize(out);
    best = rep == 0 ? t : std::min(best, t);
  }
  return static_cast<double>(kBatch) / best;
}

/// The median of per-call times in seconds, in microseconds.
double median_us(std::vector<double> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid * 1e6;
}

/// Pooled / serial plan_sort_batch speed in one process.
struct PoolSpeedup {
  std::size_t threads = 0;
  double serial_us = 0;  // median per call
  double pooled_us = 0;  // median per call
};

/// 200 alternating serial and pooled calls of plan_sort_batch on L(2^5)
/// at kBatch lanes, after one untimed call of each. Each timed pooled call
/// follows an untimed pooled call, so it finds the workers awake, as a
/// back-to-back caller does: the serial call in between can outlast the
/// pool's spin window, and a call made after the workers have parked also
/// pays their wake-up, which this row does not measure. Outputs are freed
/// outside the timed calls.
PoolSpeedup measure_pool_speedup() {
  constexpr int kCalls = 200;
  const ExecutionPlan plan = compile_plan(make_l_network({2, 2, 2, 2, 2}));
  const auto inputs = bench::random_inputs(plan.width(), kBatch, 99);
  ThreadPool pool;
  std::vector<double> serial;
  std::vector<double> pooled;
  for (int call = -1; call < kCalls; ++call) {
    std::vector<std::vector<Count>> out;
    const double s =
        bench::time_once([&] { out = plan_sort_batch(plan, inputs); });
    benchmark::DoNotOptimize(out);
    out = plan_sort_batch(plan, inputs, &pool);
    out = {};
    const double p =
        bench::time_once([&] { out = plan_sort_batch(plan, inputs, &pool); });
    benchmark::DoNotOptimize(out);
    if (call < 0) continue;  // the warm-up pair
    serial.push_back(s);
    pooled.push_back(p);
  }
  return {pool.size(), median_us(serial), median_us(pooled)};
}

/// Serial plan_sort_batch speed by lane type, in one process.
struct LaneTypes {
  double narrow_us = 0;  // median per call, every block walked at 32 bits
  double wide_us = 0;    // median per call, every block walked at 64 bits
};

/// 200 alternating serial calls of plan_sort_batch on L(2^5) at kBatch
/// lanes on values below 2^20, as scbench draws them, and on the same
/// values plus 2^40, which no block can walk at 32 bits. Both sort the same
/// keys in the same order, so only the lane type differs. Outputs are freed
/// outside the timed calls.
LaneTypes measure_lane_types() {
  constexpr int kCalls = 200;
  const ExecutionPlan plan = compile_plan(make_l_network({2, 2, 2, 2, 2}));
  std::mt19937_64 rng(99);
  std::vector<std::vector<Count>> narrow(kBatch,
                                         std::vector<Count>(plan.width()));
  for (std::vector<Count>& in : narrow) {
    for (Count& x : in) x = static_cast<Count>(rng() % (1u << 20));
  }
  std::vector<std::vector<Count>> wide = narrow;
  for (std::vector<Count>& in : wide) {
    for (Count& x : in) x += Count{1} << 40;
  }
  std::vector<double> narrow_s;
  std::vector<double> wide_s;
  for (int call = -1; call < kCalls; ++call) {
    std::vector<std::vector<Count>> out;
    const double n =
        bench::time_once([&] { out = plan_sort_batch(plan, narrow); });
    benchmark::DoNotOptimize(out);
    out = {};
    const double w =
        bench::time_once([&] { out = plan_sort_batch(plan, wide); });
    benchmark::DoNotOptimize(out);
    if (call < 0) continue;  // the warm-up pair
    narrow_s.push_back(n);
    wide_s.push_back(w);
  }
  return {median_us(narrow_s), median_us(wide_s)};
}

std::vector<Measurement> measure_all() {
  const std::vector<NetworkCase>& cases = networks();
  std::vector<Measurement> ms(cases.size());
  // Serial rows network by network, then the pool-using threaded rows,
  // then the interpreter. Each row inherits the heap the rows before
  // it left behind: on a 4-vCPU host, running the interpreter first moved
  // the K(2x3x4) and L(4x4x4) batch rows by about 20%, so the order is
  // fixed.
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ms[i].batch_vps = plan_vps(cases[i], false);
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ms[i].threaded_vps = plan_vps(cases[i], true);
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Runtime rt;
    const Network net = cases[i].build(rt);
    const auto inputs = bench::random_inputs(net.width(), kBatch, 99);
    const double t = bench::best_time([&] {
      for (const auto& in : inputs) {
        benchmark::DoNotOptimize(comparator_output_counts(net, in));
      }
    });
    ms[i].network = cases[i].name;
    ms[i].width = net.width();
    ms[i].depth = net.depth();
    ms[i].interp_vps = static_cast<double>(kBatch) / t;
  }
  return ms;
}

bool emit_report(const std::vector<Measurement>& ms, const PoolSpeedup& pool,
                 const LaneTypes& lane_types) {
  bench::print_header(
      "E-ENG  Compiled batch engine vs per-gate interpreter",
      "layer-scheduled SoA batches >= 3x interpreter throughput (w >= 24)");
  std::printf("%-14s %5s %5s %12s %12s %12s %8s\n", "network", "w", "d",
              "interp v/s", "batch v/s", "threaded v/s", "batch/x");
  bench::print_row_rule();
  bench::JsonReport report("BENCH_engine.json", "engine_batch");
  bool all_pass = true;
  for (const Measurement& m : ms) {
    const double speedup = m.batch_vps / m.interp_vps;
    const bool pass = speedup >= 3.0;
    all_pass = all_pass && pass;
    std::printf("%-14s %5zu %5u %12.0f %12.0f %12.0f %7.2fx %s\n",
                m.network.c_str(), m.width, m.depth, m.interp_vps,
                m.batch_vps, m.threaded_vps, speedup, bench::mark(pass));
    report.begin_row();
    report.kv("network", m.network);
    report.kv("width", static_cast<std::uint64_t>(m.width));
    report.kv("depth", static_cast<std::uint64_t>(m.depth));
    report.kv("batch_size", static_cast<std::uint64_t>(kBatch));
    report.kv("interpreter_vps", m.interp_vps);
    report.kv("plan_batch_vps", m.batch_vps);
    report.kv("plan_threaded_vps", m.threaded_vps);
    report.kv("batch_speedup", speedup);
    report.end_row();
  }
  const double pool_speedup = pool.serial_us / pool.pooled_us;
  std::printf(
      "\nL(2^5), %zu lanes, median of 200 alternating calls: serial "
      "plan_sort_batch %.0f us, pooled (%zu threads) %.0f us, pooled / "
      "serial speed %.2fx\n(informational, not gated: on a shared 4-vCPU "
      "host threaded / batch read anywhere from 1.0x to 3.1x between "
      "runs)\n",
      kBatch, pool.serial_us, pool.threads, pool.pooled_us, pool_speedup);
  report.begin_row();
  report.kv("network", "L(2^5)");
  report.kv("batch_size", static_cast<std::uint64_t>(kBatch));
  report.kv("pool_threads", static_cast<std::uint64_t>(pool.threads));
  report.kv("serial_call_us", pool.serial_us);
  report.kv("pooled_call_us", pool.pooled_us);
  report.kv("pooled_over_serial_speed", pool_speedup);
  report.kv("gated", false);
  report.end_row();
  const double narrow_speedup = lane_types.wide_us / lane_types.narrow_us;
  std::printf(
      "L(2^5), %zu lanes, median of 200 alternating serial plan_sort_batch "
      "calls: values below 2^20 (32-bit blocks) %.0f us, the same values "
      "plus 2^40 (64-bit blocks) %.0f us, 32-bit / 64-bit speed %.2fx\n"
      "(informational: the 32-bit blocks stay only while they win here)\n",
      kBatch, lane_types.narrow_us, lane_types.wide_us, narrow_speedup);
  report.begin_row();
  report.kv("network", "L(2^5)");
  report.kv("batch_size", static_cast<std::uint64_t>(kBatch));
  report.kv("narrow_call_us", lane_types.narrow_us);
  report.kv("wide_call_us", lane_types.wide_us);
  report.kv("narrow_over_wide_speed", narrow_speedup);
  report.kv("gated", false);
  report.end_row();
  const bool pass = report.finish(all_pass);
  std::printf("\n");
  return pass;
}

template <typename Runner>
void batch_bench(benchmark::State& state, const Network& net, Runner run) {
  const ExecutionPlan plan = compile_plan(net);
  const auto inputs = bench::random_inputs(net.width(), kBatch, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run(net, plan, inputs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}

const Network& k64() {
  static const Network net = make_k_network({4, 4, 4});
  return net;
}

void BM_InterpreterK64(benchmark::State& state) {
  batch_bench(state, k64(),
              [](const Network& net, const ExecutionPlan&,
                 const std::vector<std::vector<Count>>& inputs) {
                std::vector<Count> last;
                for (const auto& in : inputs) {
                  last = comparator_output_counts(net, in);
                }
                return last;
              });
}
BENCHMARK(BM_InterpreterK64)->Unit(benchmark::kMillisecond);

void BM_PlanScalarK64(benchmark::State& state) {
  batch_bench(state, k64(),
              [](const Network&, const ExecutionPlan& plan,
                 const std::vector<std::vector<Count>>& inputs) {
                std::vector<Count> last;
                for (const auto& in : inputs) {
                  last = plan_comparator_output(plan, in);
                }
                return last;
              });
}
BENCHMARK(BM_PlanScalarK64)->Unit(benchmark::kMillisecond);

void BM_PlanBatchK64(benchmark::State& state) {
  batch_bench(state, k64(),
              [](const Network&, const ExecutionPlan& plan,
                 const std::vector<std::vector<Count>>& inputs) {
                return plan_sort_batch(plan, inputs);
              });
}
BENCHMARK(BM_PlanBatchK64)->Unit(benchmark::kMillisecond);

void BM_PlanThreadedK64(benchmark::State& state) {
  batch_bench(state, k64(),
              [](const Network&, const ExecutionPlan& plan,
                 const std::vector<std::vector<Count>>& inputs) {
                return plan_sort_batch(plan, inputs, &ThreadPool::shared());
              });
}
BENCHMARK(BM_PlanThreadedK64)->Unit(benchmark::kMillisecond);

void BM_PlanCountBatchK64(benchmark::State& state) {
  batch_bench(state, k64(),
              [](const Network&, const ExecutionPlan& plan,
                 const std::vector<std::vector<Count>>& inputs) {
                return plan_count_batch(plan, inputs);
              });
}
BENCHMARK(BM_PlanCountBatchK64)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // The gated rows run first, so the informational row leaves them the
  // same heap as before it existed.
  const std::vector<Measurement> ms = measure_all();
  const PoolSpeedup pool = measure_pool_speedup();
  const bool pass = emit_report(ms, pool, measure_lane_types());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return pass ? 0 : 1;
}
