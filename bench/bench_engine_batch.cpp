// E-ENG — compiled batch engine vs the per-gate interpreter.
//
// Sorts a large batch of random vectors through K / L / bitonic networks
// four ways: per-gate interpreter (apply_comparators, one vector at a
// time), compiled plan scalar, compiled plan SoA batch, and the SoA batch
// sharded over the pool. The headline number is vectors/sec; the
// acceptance bar for the engine is >= 3x interpreter throughput for the
// single-threaded SoA batch on a width >= 24 network.
//
// Each (network, backend) row runs on a fresh private Runtime, sends the
// raw network (PassLevel::kNone) through the engine dispatcher and keeps
// the best of 3 runs; the interpreter row is timed the same way. Rows feed
// the acceptance gate, so they are measured one at a time.
//
// Besides the google-benchmark timings, the preamble emits
// BENCH_engine.json — a machine-readable report of the measured
// throughputs and speedups per network — and main() returns non-zero when
// any row misses the 3x bar.
#include <benchmark/benchmark.h>

#include <functional>
#include <string>

#include "baseline/bitonic.h"
#include "bench_common.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "engine/backend.h"
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
  double scalar_vps = 0;    // plan, scalar tier
  double batch_vps = 0;     // plan, SoA batch tier
  double threaded_vps = 0;  // plan, SoA batch over the pool
};

/// Best-of-3 vectors/sec of `which` sorting kBatch random vectors through
/// the network, on a fresh Runtime pinned to that backend.
double backend_vps(const NetworkCase& c, EngineBackend which) {
  Runtime::Options options;
  options.backend = which;
  Runtime rt(options);
  const Network net = c.build(rt);
  const CachedPlan cached = rt.compiled(  // kNone: measure the raw network
      net, PassLevel::kNone, PassOptions{.semantics = Semantics::kComparator});
  const auto inputs = bench::random_inputs(net.width(), kBatch, 99);
  const double t = bench::best_time([&] {
    benchmark::DoNotOptimize(
        engine::sort_batch(*cached.plan, inputs, rt, which));
  });
  return static_cast<double>(kBatch) / t;
}

std::vector<Measurement> measure_all() {
  const std::vector<NetworkCase>& cases = networks();
  std::vector<Measurement> ms(cases.size());
  // Scalar and batch rows network by network, then the pool-using threaded
  // rows, then the interpreter. Each row inherits the heap the rows before
  // it left behind: on a 4-vCPU host, running the interpreter first moved
  // the K(2x3x4) and L(4x4x4) batch rows by about 20%, so the order is
  // fixed.
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ms[i].scalar_vps = backend_vps(cases[i], EngineBackend::kScalar);
    ms[i].batch_vps = backend_vps(cases[i], EngineBackend::kBatch);
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ms[i].threaded_vps = backend_vps(cases[i], EngineBackend::kThreaded);
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

bool emit_report(const std::vector<Measurement>& ms) {
  bench::print_header(
      "E-ENG  Compiled batch engine vs per-gate interpreter",
      "layer-scheduled SoA batches >= 3x interpreter throughput (w >= 24)");
  std::printf("%-14s %5s %5s %12s %12s %12s %12s %8s\n", "network", "w", "d",
              "interp v/s", "scalar v/s", "batch v/s", "threaded v/s",
              "batch/x");
  bench::print_row_rule();
  bench::JsonReport report("BENCH_engine.json", "engine_batch");
  bool all_pass = true;
  for (const Measurement& m : ms) {
    const double speedup = m.batch_vps / m.interp_vps;
    const bool pass = speedup >= 3.0;
    all_pass = all_pass && pass;
    std::printf("%-14s %5zu %5u %12.0f %12.0f %12.0f %12.0f %7.2fx %s\n",
                m.network.c_str(), m.width, m.depth, m.interp_vps,
                m.scalar_vps, m.batch_vps, m.threaded_vps, speedup,
                bench::mark(pass));
    report.begin_row();
    report.kv("network", m.network);
    report.kv("width", static_cast<std::uint64_t>(m.width));
    report.kv("depth", static_cast<std::uint64_t>(m.depth));
    report.kv("batch_size", static_cast<std::uint64_t>(kBatch));
    report.kv("interpreter_vps", m.interp_vps);
    report.kv("plan_scalar_vps", m.scalar_vps);
    report.kv("plan_batch_vps", m.batch_vps);
    report.kv("plan_threaded_vps", m.threaded_vps);
    report.kv("batch_speedup", speedup);
    report.end_row();
  }
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
  const bool pass = emit_report(measure_all());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return pass ? 0 : 1;
}
