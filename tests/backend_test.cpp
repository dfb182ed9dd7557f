// The backend registry and its dispatch policy: name/parse round-trips,
// select_backend() threshold behavior, kAuto resolution against real
// plans, and the Runtime plumbing that carries a backend request from
// SCNET_BACKEND / Runtime::Options to the dispatcher.
// Bit-identity of the backends themselves is pinned by the randomized
// sweep in engine_cross_check_test.cpp.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>

#include "baseline/bitonic.h"
#include "core/cost_model.h"
#include "core/k_network.h"
#include "engine/backend.h"
#include "engine/execution_plan.h"
#include "opt/plan_cache.h"
#include "runtime/runtime.h"
#include "seq/generators.h"

namespace scn {
namespace {

TEST(BackendNames, ToStringParseRoundTrip) {
  for (const EngineBackend b : engine::registered_backends()) {
    const auto parsed = parse_backend(to_string(b));
    ASSERT_TRUE(parsed.has_value()) << to_string(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_EQ(parse_backend("auto"), EngineBackend::kAuto);
  EXPECT_EQ(std::string(to_string(EngineBackend::kAuto)), "auto");
  EXPECT_FALSE(parse_backend("").has_value());
  EXPECT_FALSE(parse_backend("sse").has_value());
  EXPECT_FALSE(parse_backend("simd").has_value());
  EXPECT_FALSE(parse_backend("Scalar").has_value());  // case-sensitive
}

TEST(BackendRegistry, ThreeConcreteBackendsWithDistinctNames) {
  const auto all = engine::registered_backends();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], EngineBackend::kScalar);
  EXPECT_EQ(all[1], EngineBackend::kBatch);
  EXPECT_EQ(all[2], EngineBackend::kThreaded);
  for (const EngineBackend b : all) {
    EXPECT_STREQ(engine::backend(b).name(), to_string(b));
  }
}

TEST(DispatchPolicy, SingleLaneIsAlwaysScalar) {
  const PlanShape pairs{.pair_gates = 80, .wide_gates = 0};
  const MachineCaps everything{.threads = 8};
  EXPECT_EQ(select_backend(pairs, 1, everything), EngineBackend::kScalar);
  EXPECT_EQ(select_backend(pairs, 0, everything), EngineBackend::kScalar);
}

TEST(DispatchPolicy, ThreadedNeedsLanesWorkAndThreads) {
  const PlanShape pairs{.pair_gates = 2048, .wide_gates = 0};
  const MachineCaps multi{.threads = 8};
  const MachineCaps single{.threads = 1};
  // 256 lanes x 2048 gates = 1 << 19 >= kThreadedMinWork.
  EXPECT_EQ(select_backend(pairs, kThreadedMinLanes, multi),
            EngineBackend::kThreaded);
  // Same shape, one thread: no pool to win on.
  EXPECT_EQ(select_backend(pairs, kThreadedMinLanes, single),
            EngineBackend::kBatch);
  // Enough lanes but a tiny plan: lanes x gates below the work floor.
  const PlanShape tiny{.pair_gates = 6, .wide_gates = 0};
  EXPECT_EQ(select_backend(tiny, kThreadedMinLanes, multi),
            EngineBackend::kBatch);
  // Lots of work but too few lanes to shard.
  EXPECT_EQ(select_backend(pairs, kThreadedMinLanes - 1, multi),
            EngineBackend::kBatch);
}

TEST(DispatchPolicy, PairOnlyPlansTakeTheBatchTierBelowTheThreadedFloor) {
  // Width-2-only plans get no tier of their own: below the threaded work
  // floor they run on batch, whose width-2 rows the compiler vectorizes.
  const PlanShape pairs_only{.pair_gates = 240, .wide_gates = 0};
  const MachineCaps multi{.threads = 8};
  for (const std::size_t lanes : {2u, 64u, 255u}) {
    EXPECT_EQ(select_backend(pairs_only, lanes, multi), EngineBackend::kBatch)
        << lanes << " lanes";
  }
  const ExecutionPlan bitonic = compile_plan(make_bitonic_network(5));
  ASSERT_EQ(engine::plan_shape(bitonic).wide_gates, 0u);
  EXPECT_EQ(select_backend(engine::plan_shape(bitonic), 64, multi),
            EngineBackend::kBatch);
}

TEST(DispatchPolicy, PlanShapeExtraction) {
  // bitonic(3): width 8, every gate width-2.
  const ExecutionPlan b = compile_plan(make_bitonic_network(3));
  const PlanShape bs = engine::plan_shape(b);
  EXPECT_EQ(bs.pair_gates + bs.wide_gates, b.gate_count());
  EXPECT_EQ(bs.wide_gates, 0u);

  // K(2,2): the base balancers are 4-wide, so wide gates exist.
  const ExecutionPlan k = compile_plan(make_k_network({2, 2}));
  const PlanShape ks = engine::plan_shape(k);
  EXPECT_GT(ks.wide_gates, 0u);
}

TEST(DispatchPolicy, ResolvePassesConcreteRequestsThrough) {
  const ExecutionPlan plan = compile_plan(make_bitonic_network(3));
  for (const EngineBackend b : engine::registered_backends()) {
    EXPECT_EQ(engine::resolve_backend(b, plan, 1), b);
    EXPECT_EQ(engine::resolve_backend(b, plan, 4096), b);
  }
  // kAuto resolves per the policy: single lane -> scalar, always.
  EXPECT_EQ(engine::resolve_backend(EngineBackend::kAuto, plan, 1),
            EngineBackend::kScalar);
  const EngineBackend many =
      engine::resolve_backend(EngineBackend::kAuto, plan, 64);
  EXPECT_NE(many, EngineBackend::kAuto);
  EXPECT_NE(many, EngineBackend::kScalar);
}

TEST(BackendPlumbing, RuntimeOptionCarriesIntoCachedPlans) {
  Runtime::Options options;
  options.backend = EngineBackend::kBatch;
  Runtime rt(options);
  EXPECT_EQ(rt.backend(), EngineBackend::kBatch);
  const Network net = make_k_network({2, 2}, rt);
  const CachedPlan cached = rt.compiled(net);
  ASSERT_NE(cached.plan, nullptr);
}

TEST(BackendPlumbing, EnvironmentVariableSetsTheDefault) {
  // default_backend() reads SCNET_BACKEND per call; Runtime captures it at
  // construction. setenv/unsetenv is safe here: tests run single-threaded.
  ASSERT_EQ(setenv("SCNET_BACKEND", "threaded", 1), 0);
  EXPECT_EQ(default_backend(), EngineBackend::kThreaded);
  Runtime rt;
  EXPECT_EQ(rt.backend(), EngineBackend::kThreaded);
  ASSERT_EQ(setenv("SCNET_BACKEND", "not-a-backend", 1), 0);
  EXPECT_EQ(default_backend(), EngineBackend::kAuto);
  ASSERT_EQ(unsetenv("SCNET_BACKEND"), 0);
  EXPECT_EQ(default_backend(), EngineBackend::kAuto);
  // The runtime constructed under the old value keeps its capture.
  EXPECT_EQ(rt.backend(), EngineBackend::kThreaded);
}

TEST(BackendPlumbing, RemovedSimdNameInEnvironmentFallsBackToAuto) {
  // "simd" is no longer a backend; an environment still naming it gets the
  // automatic policy, like any other unknown value.
  ASSERT_EQ(setenv("SCNET_BACKEND", "simd", 1), 0);
  EXPECT_EQ(default_backend(), EngineBackend::kAuto);
  Runtime rt;
  EXPECT_EQ(rt.backend(), EngineBackend::kAuto);
  ASSERT_EQ(unsetenv("SCNET_BACKEND"), 0);
}

TEST(BackendDispatch, SingleVectorEntryPointsMatchScalarReference) {
  std::mt19937_64 rng(7);
  const Network net = make_k_network({2, 3});
  const ExecutionPlan plan = compile_plan(net);
  const auto in = random_count_vector(rng, net.width(), 50);
  const std::vector<Count> ref_sorted =
      engine::sorted_output(plan, in, EngineBackend::kScalar);
  const std::vector<Count> ref_counts =
      engine::counts_output(plan, in, EngineBackend::kScalar);
  for (const EngineBackend b : engine::registered_backends()) {
    EXPECT_EQ(engine::sorted_output(plan, in, b), ref_sorted)
        << to_string(b);
    EXPECT_EQ(engine::counts_output(plan, in, b), ref_counts)
        << to_string(b);
  }
  EXPECT_EQ(engine::sorted_output(plan, in, EngineBackend::kAuto),
            ref_sorted);
  EXPECT_EQ(engine::counts_output(plan, in, EngineBackend::kAuto),
            ref_counts);
}

}  // namespace
}  // namespace scn
