// Layer-partition correctness of the ExecutionPlan compiler.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "baseline/batcher.h"
#include "baseline/bitonic.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "core/r_network.h"
#include "engine/backend.h"
#include "engine/batch_engine.h"
#include "engine/execution_plan.h"
#include "perf/thread_pool.h"
#include "runtime/runtime.h"
#include "seq/generators.h"
#include "sim/comparator_sim.h"
#include "sim/count_sim.h"

namespace scn {
namespace {

std::vector<Network> grid() {
  std::vector<Network> nets;
  nets.push_back(make_k_network({2, 3, 2}));
  nets.push_back(make_k_network({4, 4}));
  nets.push_back(make_l_network({3, 2, 2}));
  nets.push_back(make_r_network(4, 3));
  nets.push_back(make_bitonic_network(4));
  nets.push_back(make_batcher_network(10));
  return nets;
}

TEST(ExecutionPlan, LayerCountEqualsNetworkDepth) {
  for (const Network& net : grid()) {
    const ExecutionPlan plan = compile_plan(net);
    EXPECT_EQ(plan.depth(), net.depth());
    EXPECT_EQ(plan.width(), net.width());
    EXPECT_EQ(plan.gate_count(), net.gate_count());
  }
}

TEST(ExecutionPlan, NoWireReusedWithinALayer) {
  for (const Network& net : grid()) {
    const ExecutionPlan plan = compile_plan(net);
    for (const ExecutionPlan::Layer& layer : plan.layers()) {
      std::set<Wire> touched;
      for (std::uint32_t k = layer.pair_begin; k < layer.pair_end; ++k) {
        EXPECT_TRUE(touched.insert(plan.pair_wires()[2 * k]).second);
        EXPECT_TRUE(touched.insert(plan.pair_wires()[2 * k + 1]).second);
      }
      for (std::uint32_t g = layer.wide_begin; g < layer.wide_end; ++g) {
        const auto wg = plan.wide_gates()[g];
        for (std::uint32_t i = 0; i < wg.width; ++i) {
          EXPECT_TRUE(
              touched.insert(plan.wide_wires()[wg.first + i]).second);
        }
      }
    }
  }
}

TEST(ExecutionPlan, EveryGateLandsInExactlyOneBucket) {
  for (const Network& net : grid()) {
    const ExecutionPlan plan = compile_plan(net);
    std::size_t pair_gates = 0;
    std::size_t wide_gates = 0;
    for (const Gate& g : net.gates()) {
      (g.width == 2 ? pair_gates : wide_gates) += 1;
    }
    EXPECT_EQ(plan.pair_wires().size(), 2 * pair_gates);
    EXPECT_EQ(plan.wide_gates().size(), wide_gates);
    EXPECT_EQ(pair_gates + wide_gates, net.gate_count());
    // Layer ranges tile the tables without gaps or overlap.
    std::uint32_t expect_pair = 0;
    std::uint32_t expect_wide = 0;
    std::uint32_t expect_ce = 0;
    for (const ExecutionPlan::Layer& layer : plan.layers()) {
      EXPECT_EQ(layer.pair_begin, expect_pair);
      EXPECT_EQ(layer.wide_begin, expect_wide);
      EXPECT_EQ(layer.ce_begin, expect_ce);
      EXPECT_LE(layer.pair_begin, layer.pair_end);
      EXPECT_LE(layer.wide_begin, layer.wide_end);
      EXPECT_LE(layer.ce_begin, layer.ce_end);
      expect_pair = layer.pair_end;
      expect_wide = layer.wide_end;
      expect_ce = layer.ce_end;
    }
    EXPECT_EQ(expect_pair, plan.pair_wires().size() / 2);
    EXPECT_EQ(expect_wide, plan.wide_gates().size());
    EXPECT_EQ(expect_ce, plan.ce_wires().size() / 2);
  }
}

TEST(ExecutionPlan, CeExpansionMatchesWideGates) {
  for (const Network& net : grid()) {
    const ExecutionPlan plan = compile_plan(net);
    for (const ExecutionPlan::Layer& layer : plan.layers()) {
      // The CE expansion of a layer covers exactly its wide gates' wires
      // (a Batcher odd-even network per gate)...
      std::size_t expected_ces = 0;
      std::set<Wire> wide_wires;
      for (std::uint32_t g = layer.wide_begin; g < layer.wide_end; ++g) {
        const auto wg = plan.wide_gates()[g];
        expected_ces += make_batcher_network(wg.width).gate_count();
        for (std::uint32_t i = 0; i < wg.width; ++i) {
          wide_wires.insert(plan.wide_wires()[wg.first + i]);
        }
      }
      // ...and references no wire outside them.
      for (std::uint32_t k = layer.ce_begin; k < layer.ce_end; ++k) {
        EXPECT_TRUE(wide_wires.count(plan.ce_wires()[2 * k]));
        EXPECT_TRUE(wide_wires.count(plan.ce_wires()[2 * k + 1]));
      }
      EXPECT_EQ(layer.ce_end - layer.ce_begin, expected_ces);
    }
  }
}

TEST(ExecutionPlan, WideGateWidthsExceedTwo) {
  for (const Network& net : grid()) {
    const ExecutionPlan plan = compile_plan(net);
    for (const auto& wg : plan.wide_gates()) {
      EXPECT_GT(wg.width, 2u);
      EXPECT_LE(wg.width, plan.max_wide_width());
    }
    EXPECT_EQ(plan.max_wide_width() > 0, !plan.wide_gates().empty());
  }
}

TEST(ExecutionPlan, ScalarRunMatchesInterpreter) {
  std::mt19937_64 rng(11);
  for (const Network& net : grid()) {
    const ExecutionPlan plan = compile_plan(net);
    for (int trial = 0; trial < 8; ++trial) {
      const auto vals = random_count_vector(rng, net.width(), 200);
      EXPECT_EQ(plan_comparator_output(plan, vals),
                comparator_output_counts(net, vals));
      EXPECT_EQ(plan_output_counts(plan, vals), output_counts(net, vals));
    }
  }
}

TEST(ExecutionPlan, WrongLengthVectorThrows) {
  const ExecutionPlan plan = compile_plan(make_l_network({3, 2, 2}));
  Runtime rt;
  for (const std::size_t n : {plan.width() - 1, plan.width() + 1}) {
    std::vector<Count> v(n, 1);
    EXPECT_THROW(run_plan(plan, v), std::invalid_argument) << n;
    EXPECT_THROW(run_plan_counts(plan, v), std::invalid_argument) << n;
    EXPECT_THROW((void)plan_comparator_output(plan, v), std::invalid_argument)
        << n;
    EXPECT_THROW((void)plan_output_counts(plan, v), std::invalid_argument)
        << n;
    engine::Batch<Count> batch(n, 4);
    EXPECT_THROW(run_plan_batch(plan, batch), std::invalid_argument) << n;
    EXPECT_THROW(run_plan_counts_batch(plan, batch), std::invalid_argument)
        << n;
    // Every backend rejects a wrong-width batch, even one with no lanes.
    for (const EngineBackend b : engine::registered_backends()) {
      for (const std::size_t lanes : {std::size_t{0}, std::size_t{4}}) {
        engine::Batch<Count> wrong(n, lanes);
        EXPECT_THROW(engine::backend(b).run_batch(plan, wrong, rt),
                     std::invalid_argument)
            << to_string(b) << ", width " << n << ", " << lanes << " lanes";
      }
    }
  }
}

TEST(ExecutionPlan, ShortVectorInsideABatchThrows) {
  const ExecutionPlan plan = compile_plan(make_l_network({3, 2, 2}));
  std::mt19937_64 rng(12);
  std::vector<std::vector<Count>> inputs;
  for (int j = 0; j < 300; ++j) {
    inputs.push_back(random_count_vector(rng, plan.width(), 50));
  }
  inputs[257].pop_back();
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    EXPECT_THROW((void)plan_sort_batch(plan, inputs, p),
                 std::invalid_argument);
    EXPECT_THROW((void)plan_count_batch(plan, inputs, p),
                 std::invalid_argument);
  }
}

TEST(ExecutionPlan, BatchRejectsBadLanesInEveryBuild) {
  engine::Batch<Count> batch(4, 3);
  const std::vector<Count> short_in{1, 2, 3};
  const std::vector<Count> long_in{1, 2, 3, 4, 5};
  const std::vector<Count> fits{4, 3, 2, 1};
  EXPECT_THROW(batch.set_lane(0, short_in), std::invalid_argument);
  EXPECT_THROW(batch.set_lane(0, long_in), std::invalid_argument);
  EXPECT_THROW(batch.set_lane(3, fits), std::invalid_argument);
  batch.set_lane(2, fits);
  EXPECT_EQ(batch.at(0, 2), 4);
  EXPECT_EQ(batch.at(3, 2), 1);

  std::vector<std::vector<Count>> inputs(5, fits);
  EXPECT_EQ(engine::pack_batch<Count>(inputs, 4).batch_size(), 5u);
  inputs[3] = short_in;
  EXPECT_THROW((void)engine::pack_batch<Count>(inputs, 4),
               std::invalid_argument);
  inputs[3] = long_in;
  EXPECT_THROW((void)engine::pack_batch<Count>(inputs, 4),
               std::invalid_argument);
}

TEST(ExecutionPlan, EmptyNetworkCompilesToEmptyPlan) {
  NetworkBuilder b(4);
  const Network net = std::move(b).finish_identity();
  const ExecutionPlan plan = compile_plan(net);
  EXPECT_EQ(plan.depth(), 0u);
  const std::vector<Count> in{3, 1, 4, 1};
  EXPECT_EQ(plan_comparator_output(plan, in), in);
}

TEST(ExecutionPlan, IndependentGateOrderCompilesToEqualPlans) {
  // Both networks: layer 1 = {0,1}, {2,3,4,5}, {6,7}; layer 2 = {1,2},
  // {5,6}. Only the order of independent gates in the stream differs.
  NetworkBuilder a(8);
  a.add_balancer({2, 3, 4, 5});
  a.add_balancer({6, 7});
  a.add_balancer({5, 6});
  a.add_balancer({0, 1});
  a.add_balancer({1, 2});
  NetworkBuilder b(8);
  b.add_balancer({0, 1});
  b.add_balancer({6, 7});
  b.add_balancer({2, 3, 4, 5});
  b.add_balancer({1, 2});
  b.add_balancer({5, 6});
  const ExecutionPlan pa = compile_plan(std::move(a).finish_identity());
  const ExecutionPlan pb = compile_plan(std::move(b).finish_identity());

  ASSERT_EQ(pa.depth(), 2u);
  ASSERT_EQ(pb.depth(), 2u);
  for (std::size_t l = 0; l < pa.layers().size(); ++l) {
    const ExecutionPlan::Layer& x = pa.layers()[l];
    const ExecutionPlan::Layer& y = pb.layers()[l];
    EXPECT_EQ(std::tie(x.pair_begin, x.pair_end, x.wide_begin, x.wide_end,
                       x.ce_begin, x.ce_end),
              std::tie(y.pair_begin, y.pair_end, y.wide_begin, y.wide_end,
                       y.ce_begin, y.ce_end))
        << "layer " << l;
  }
  // Each layer's pairs are ordered by minimum wire.
  EXPECT_EQ(pa.pair_wires(), (std::vector<Wire>{0, 1, 6, 7, 1, 2, 5, 6}));
  EXPECT_EQ(pa.pair_wires(), pb.pair_wires());
  ASSERT_EQ(pa.wide_gates().size(), pb.wide_gates().size());
  for (std::size_t g = 0; g < pa.wide_gates().size(); ++g) {
    EXPECT_EQ(pa.wide_gates()[g].first, pb.wide_gates()[g].first);
    EXPECT_EQ(pa.wide_gates()[g].width, pb.wide_gates()[g].width);
  }
  EXPECT_EQ(pa.wide_wires(), pb.wide_wires());
  EXPECT_EQ(pa.ce_wires(), pb.ce_wires());
  EXPECT_EQ(pa.output_order(), pb.output_order());
}

}  // namespace
}  // namespace scn
