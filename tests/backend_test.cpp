// The engine's entry points: which calls engine::sort_batch hands to the
// runtime's pool (at least 256 lanes, at least 2^18 lanes x compare-
// exchanges, and a
// runtime of more than one thread), read back from the dispatch counters,
// and the one-vector entries against the per-gate interpreter.
// Bit-identity of the serial and pooled walks over many lanes is pinned by
// the randomized sweep in engine_cross_check_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "baseline/bitonic.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "engine/backend.h"
#include "engine/execution_plan.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "seq/generators.h"
#include "sim/comparator_sim.h"

namespace scn {
namespace {

// What one engine call recorded: the three dispatch counters, and how many
// engine.batch.threads values (one per pooled walk).
struct Recorded {
  std::uint64_t threaded = 0;
  std::uint64_t batch = 0;
  std::uint64_t scalar = 0;
  std::uint64_t pooled_walks = 0;
};

Recorded totals() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::shared();
  return {reg.counter("engine.backend.threaded.dispatches").value(),
          reg.counter("engine.backend.batch.dispatches").value(),
          reg.counter("engine.backend.scalar.dispatches").value(),
          reg.histogram("engine.batch.threads").snapshot().count};
}

template <typename Call>
Recorded recorded(const Call& call) {
  const Recorded before = totals();
  call();
  const Recorded after = totals();
  return {after.threaded - before.threaded, after.batch - before.batch,
          after.scalar - before.scalar,
          after.pooled_walks - before.pooled_walks};
}

Runtime::Options with_threads(std::size_t threads) {
  Runtime::Options options;
  options.threads = threads;
  return options;
}

std::vector<std::vector<Count>> random_inputs(std::size_t width,
                                              std::size_t lanes,
                                              std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<Count>> inputs;
  for (std::size_t j = 0; j < lanes; ++j) {
    inputs.push_back(random_count_vector(rng, width, 100));
  }
  return inputs;
}

// Expects exactly one serial dispatch and no pooled walk from a
// sort_batch call, with the interpreter's outputs.
void expect_serial(const Network& net, const ExecutionPlan& plan,
                   std::size_t lanes, Runtime& rt, const std::string& what) {
  const auto inputs = random_inputs(net.width(), lanes, lanes);
  std::vector<std::vector<Count>> got;
  const Recorded r =
      recorded([&] { got = engine::sort_batch(plan, inputs, rt); });
  EXPECT_EQ(r.batch, 1u) << what;
  EXPECT_EQ(r.threaded, 0u) << what;
  EXPECT_EQ(r.pooled_walks, 0u) << what;
  for (std::size_t j = 0; j < lanes; ++j) {
    ASSERT_EQ(got[j], comparator_output_counts(net, inputs[j]))
        << what << ", lane " << j;
  }
}

TEST(DispatchPolicy, ThreadedNeedsLanesWorkAndThreads) {
  if (!obs::compiled_in()) GTEST_SKIP() << "engine metrics compiled out";
  const Network net = make_l_network({2, 2, 2, 2, 2});
  const ExecutionPlan plan = compile_plan(net);
  // 4096 lanes x L(2^5)'s compare-exchanges (one per width-2 gate) clear
  // the work floor.
  ASSERT_TRUE(plan.wide_gates().empty());
  ASSERT_GE(4096 * plan.gate_count(), std::size_t{1} << 18);
  Runtime four(with_threads(4));
  ASSERT_EQ(four.threads(), 4u);
  const auto inputs = random_inputs(net.width(), 4096, 5);
  std::vector<std::vector<Count>> got;
  const Recorded pooled =
      recorded([&] { got = engine::sort_batch(plan, inputs, four); });
  EXPECT_EQ(pooled.threaded, 1u);
  EXPECT_EQ(pooled.batch, 0u);
  EXPECT_EQ(pooled.pooled_walks, 1u);
  for (std::size_t j = 0; j < inputs.size(); j += 97) {
    ASSERT_EQ(got[j], comparator_output_counts(net, inputs[j])) << j;
  }
  // Too few lanes to hand out, on the same runtime.
  expect_serial(net, plan, 16, four, "16 lanes, 4 threads");
  // The runtime's own thread count decides, not the host's: one thread
  // has no second thread to take a block, however many CPUs there are.
  Runtime one(with_threads(1));
  ASSERT_EQ(one.threads(), 1u);
  expect_serial(net, plan, 4096, one, "4096 lanes, 1 thread");
}

TEST(DispatchPolicy, WideGatesCountTheirCompareExchanges) {
  // K(4x4) compiles to one 16-wide gate, which the walk runs as 63
  // compare-exchanges: 8192 lanes of it clear the work floor although
  // 8192 lanes x 1 gate would not.
  if (!obs::compiled_in()) GTEST_SKIP() << "engine metrics compiled out";
  const Network net = make_k_network({4, 4});
  const ExecutionPlan plan = compile_plan(net);
  ASSERT_EQ(plan.gate_count(), 1u);
  ASSERT_EQ(plan.pair_wires().size() / 2 + plan.ce_wires().size() / 2, 63u);
  Runtime four(with_threads(4));
  const auto inputs = random_inputs(net.width(), 8192, 9);
  std::vector<std::vector<Count>> got;
  const Recorded r =
      recorded([&] { got = engine::sort_batch(plan, inputs, four); });
  EXPECT_EQ(r.threaded, 1u);
  EXPECT_EQ(r.batch, 0u);
  EXPECT_EQ(r.pooled_walks, 1u);
  for (std::size_t j = 0; j < inputs.size(); j += 331) {
    ASSERT_EQ(got[j], comparator_output_counts(net, inputs[j])) << j;
  }
}

TEST(DispatchPolicy, PairOnlyPlansTakeTheBatchTierBelowTheThreadedFloor) {
  // Width-2-only plans get no tier of their own: below the lane floor, or
  // below the work floor, they run serially on the caller.
  if (!obs::compiled_in()) GTEST_SKIP() << "engine metrics compiled out";
  Runtime four(with_threads(4));
  const Network bitonic = make_bitonic_network(5);
  const ExecutionPlan plan = compile_plan(bitonic);
  ASSERT_TRUE(plan.wide_gates().empty());
  for (const std::size_t lanes : {1u, 2u, 64u, 255u}) {
    expect_serial(bitonic, plan, lanes, four,
                  std::to_string(lanes) + " lanes");
  }
  // 256 lanes x bitonic(3)'s 24 compare-exchanges is far below the work
  // floor.
  const Network small = make_bitonic_network(3);
  const ExecutionPlan small_plan = compile_plan(small);
  ASSERT_LT(256 * small_plan.gate_count(), std::size_t{1} << 18);
  expect_serial(small, small_plan, 256, four, "256 lanes of a small plan");
}

TEST(DispatchPolicy, SingleLaneIsAlwaysScalar) {
  // One vector has no lane dimension to hand out: the one-vector entries
  // walk it on the caller, whatever the runtime's thread count.
  if (!obs::compiled_in()) GTEST_SKIP() << "engine metrics compiled out";
  const ExecutionPlan plan = compile_plan(make_l_network({2, 2, 2, 2, 2}));
  std::vector<Count> values(plan.width(), 3);
  const Recorded r = recorded([&] {
    (void)engine::sorted_output(plan, values);
    engine::sort_ascending(plan, values);
  });
  EXPECT_EQ(r.scalar, 2u);
  EXPECT_EQ(r.batch, 0u);
  EXPECT_EQ(r.threaded, 0u);
  EXPECT_EQ(r.pooled_walks, 0u);
}

TEST(BackendDispatch, SingleVectorEntryPointsMatchScalarReference) {
  std::mt19937_64 rng(7);
  const Network net = make_k_network({2, 3});
  const ExecutionPlan plan = compile_plan(net);
  const auto in = random_count_vector(rng, net.width(), 50);
  const std::vector<Count> expected = comparator_output_counts(net, in);
  EXPECT_EQ(engine::sorted_output(plan, in), expected);
  std::vector<Count> ascending = in;
  engine::sort_ascending(plan, ascending);
  EXPECT_TRUE(std::equal(ascending.begin(), ascending.end(),
                         expected.rbegin(), expected.rend()));
}

}  // namespace
}  // namespace scn
