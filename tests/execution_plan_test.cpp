// Layer-partition correctness of the ExecutionPlan compiler, plus
// thread-pool behavior the engine relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
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

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitAndWaitIdleRunsEverything) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 5050);
  // The pool is reusable after wait_idle.
  pool.submit([&sum] { sum.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 5051);
}

TEST(ThreadPool, ParallelForOnTinyRangeRunsInline) {
  ThreadPool pool(8);
  int calls = 0;
  pool.parallel_for(3, 100, [&](std::size_t begin, std::size_t end) {
    ++calls;  // single chunk => runs on the calling thread, no data race
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 3u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder) {
  // One FIFO queue: a lone worker pops tasks in the order they were pushed.
  ThreadPool pool(1);
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    pool.submit([&mu, &order, i] {
      const std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  pool.wait_idle();
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i));
  }
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // no wait_idle: the destructor must still run every queued task
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, ParallelForChunksDependOnlyOnShape) {
  // Chunk boundaries are a function of (n, grain, size()): an even split
  // into min(size, ceil(n / grain)) contiguous ranges, the first n % chunks
  // one item longer. Repeated runs must see the same boundaries.
  auto chunks_of = [](ThreadPool& pool, std::size_t n, std::size_t grain) {
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> seen;
    pool.parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
      const std::lock_guard<std::mutex> lock(mu);
      seen.emplace_back(begin, end);
    });
    std::sort(seen.begin(), seen.end());
    return seen;
  };
  ThreadPool pool(4);
  const auto ten = chunks_of(pool, 10, 1);
  const std::vector<std::pair<std::size_t, std::size_t>> want{
      {0, 3}, {3, 6}, {6, 8}, {8, 10}};
  EXPECT_EQ(ten, want);
  EXPECT_EQ(chunks_of(pool, 10, 1), ten);
  // The grain caps the chunk count: 10 items at grain 4 make 3 chunks.
  EXPECT_EQ(chunks_of(pool, 10, 4).size(), 3u);
  ThreadPool twin(4);
  EXPECT_EQ(chunks_of(twin, 1001, 7), chunks_of(pool, 1001, 7));
}

}  // namespace
}  // namespace scn
