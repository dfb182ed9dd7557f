// Cross-engine agreement matrix: for a grid of (network, load) pairs, the
// quiescent outputs of every execution engine must coincide:
//   count propagation == compiled plan (scalar, batch, threaded batch)
//   == token sim (all policies) == manual router == concurrent threads
//   == event sim.
// This is the strongest single guard against a divergence bug in any one
// engine's balancer semantics. The threaded tier's lane striping is swept
// separately over pool sizes, lane counts and stripe grains.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>
#include <random>
#include <vector>

#include "baseline/batcher.h"
#include "baseline/bitonic.h"
#include "baseline/periodic.h"
#include "core/family.h"
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
#include "sim/concurrent_sim.h"
#include "sim/count_sim.h"
#include "sim/event_sim.h"
#include "sim/manual_router.h"
#include "sim/token_sim.h"

namespace scn {
namespace {

struct GridCase {
  Network net;
  bool counts = true;  ///< a counting network (step outputs at quiescence)
};

std::vector<GridCase> grid() {
  std::vector<GridCase> cases;
  cases.push_back({make_k_network({2, 3, 2})});
  cases.push_back({make_l_network({3, 2, 2})});
  cases.push_back({make_r_network(4, 3)});
  cases.push_back({make_bitonic_network(3)});
  cases.push_back({make_periodic_network(3)});
  // L(8x8), the L member at width 64 under an 8-wide cap: the wide-gate
  // stress case, whose many 8-wide gates run as compare-exchange
  // expansions on a single vector.
  cases.push_back({make_network_for_width(64, 8, NetworkKind::kL)});
  // K(4x4) is one 16-wide balancer, so the comparator path runs only its
  // compare-exchange expansion. L(3,3,2) mixes 3-wide gates and pairs.
  cases.push_back({make_k_network({4, 4})});
  cases.push_back({make_l_network({3, 3, 2})});
  // Batcher's width-24 network, the Sorter's plan at a width that is not a
  // power of two. It sorts but does not count.
  cases.push_back({make_batcher_network(24), false});
  return cases;
}

TEST(EngineCrossCheck, AllEnginesAgreeOnQuiescentOutputs) {
  std::mt19937_64 rng(1);
  for (const auto& [net, counts] : grid()) {
    for (int load = 0; load < 6; ++load) {
      const auto in =
          random_count_vector(rng, net.width(), 9 + 13 * load);
      const auto expected = output_counts(net, in);

      // Compiled plan: scalar count path.
      const ExecutionPlan plan = compile_plan(net);
      ASSERT_EQ(plan_output_counts(plan, in), expected) << "plan scalar";

      // Token simulator, every schedule policy.
      for (const SchedulePolicy policy : all_schedule_policies()) {
        const auto sim = run_token_simulation(net, in, policy, 99);
        ASSERT_EQ(sim.outputs, expected)
            << "token sim policy " << static_cast<int>(policy);
      }

      // Manual router, random interleaving.
      {
        ManualTokenRouter router(net);
        std::vector<ManualTokenRouter::TokenId> live;
        for (std::size_t w = 0; w < in.size(); ++w) {
          for (Count t = 0; t < in[w]; ++t) {
            live.push_back(router.spawn(static_cast<Wire>(w)));
          }
        }
        while (!live.empty()) {
          std::uniform_int_distribution<std::size_t> pick(0,
                                                          live.size() - 1);
          const std::size_t i = pick(rng);
          if (!router.step(live[i])) {
            live[i] = live.back();
            live.pop_back();
          }
        }
        ASSERT_EQ(router.exit_counts(), expected) << "manual router";
      }

      // Real threads (single feeder thread per wire group keeps the load
      // exact).
      {
        ConcurrentNetwork cn(net);
        for (std::size_t w = 0; w < in.size(); ++w) {
          for (Count t = 0; t < in[w]; ++t) {
            cn.traverse(static_cast<Wire>(w));
          }
        }
        ASSERT_EQ(cn.output_counts(), expected) << "concurrent";
      }
    }

    // Compiled plan: batch and threaded-batch count paths, checked against
    // the interpreter lane by lane.
    {
      const ExecutionPlan plan = compile_plan(net);
      std::vector<std::vector<Count>> inputs;
      std::vector<std::vector<Count>> expected_outs;
      for (int j = 0; j < 150; ++j) {
        inputs.push_back(random_count_vector(rng, net.width(), 5 + j));
        expected_outs.push_back(output_counts(net, inputs.back()));
      }
      ASSERT_EQ(plan_count_batch(plan, inputs), expected_outs)
          << "plan batch counts";
      ThreadPool pool(3);
      ASSERT_EQ(plan_count_batch(plan, inputs, &pool), expected_outs)
          << "plan threaded batch counts";
      ASSERT_EQ(plan_count_batch(plan, inputs, &ThreadPool::shared()),
                expected_outs)
          << "plan shared-pool batch counts";
    }

    // Compiled plan: comparator path (scalar, batch, threaded) against the
    // per-gate interpreter.
    {
      const ExecutionPlan plan = compile_plan(net);
      std::vector<std::vector<Count>> inputs;
      std::vector<std::vector<Count>> expected_outs;
      for (int j = 0; j < 150; ++j) {
        inputs.push_back(random_count_vector(rng, net.width(), 40 + 3 * j));
        expected_outs.push_back(comparator_output_counts(net, inputs.back()));
        ASSERT_EQ(plan_comparator_output(plan, inputs.back()),
                  expected_outs.back())
            << "plan scalar sort";
      }
      ASSERT_EQ(plan_sort_batch(plan, inputs), expected_outs)
          << "plan batch sort";
      ThreadPool pool(3);
      ASSERT_EQ(plan_sort_batch(plan, inputs, &pool), expected_outs)
          << "plan threaded batch sort";
    }

    // Event simulator: loads are generated internally, so check that every
    // token exits and, on a counting network, the step-form invariant
    // instead of an exact vector.
    EventSimConfig cfg;
    cfg.clients = 5;
    cfg.tokens_per_client = 60;
    const EventSimResult ev = run_event_simulation(net, cfg);
    const auto total = static_cast<Count>(cfg.clients *
                                          cfg.tokens_per_client);
    ASSERT_EQ(std::accumulate(ev.outputs.begin(), ev.outputs.end(), Count{0}),
              total)
        << "event sim";
    if (counts) {
      ASSERT_EQ(ev.outputs, step_sequence(net.width(), total)) << "event sim";
    }
  }
}

TEST(EngineCrossCheck, AllBackendsBitIdenticalToScalar) {
  // Randomized sweep over every registered engine backend: for each grid
  // network (K/L/R widths with >2-wide gates, plus the width-2-only
  // baselines) and a spread of batch sizes — odd ones, both sides of the
  // packed entries' 64-lane blocks and of the SoA walk's 256-lane blocks,
  // and one lane past a multiple of both — the batched comparator and
  // count outputs must be bit-identical to the scalar reference backend,
  // lane by lane. This is the contract that makes backend choice a pure
  // performance decision.
  std::mt19937_64 rng(42);
  Runtime rt;
  for (const GridCase& c : grid()) {
    const Network& net = c.net;
    const ExecutionPlan plan = compile_plan(net);
    for (const std::size_t lanes :
         {1u, 7u, 33u, 63u, 64u, 65u, 127u, 128u, 129u, 257u, 4097u}) {
      std::vector<std::vector<Count>> inputs;
      inputs.reserve(lanes);
      for (std::size_t j = 0; j < lanes; ++j) {
        inputs.push_back(random_count_vector(
            rng, net.width(), 1 + static_cast<Count>(rng() % 200)));
      }
      const auto ref_sort =
          engine::sort_batch(plan, inputs, rt, EngineBackend::kScalar);
      const auto ref_count =
          engine::count_batch(plan, inputs, rt, EngineBackend::kScalar);
      // The scalar reference must itself agree with the per-gate
      // interpreter before anything is pinned against it.
      for (std::size_t j = 0; j < lanes; ++j) {
        ASSERT_EQ(ref_sort[j], comparator_output_counts(net, inputs[j]))
            << "scalar vs interpreter, lane " << j;
        ASSERT_EQ(ref_count[j], output_counts(net, inputs[j]))
            << "scalar vs count propagation, lane " << j;
      }
      for (const EngineBackend b : engine::registered_backends()) {
        ASSERT_EQ(engine::sort_batch(plan, inputs, rt, b), ref_sort)
            << to_string(b) << " sort, " << lanes << " lanes, width "
            << net.width();
        ASSERT_EQ(engine::count_batch(plan, inputs, rt, b), ref_count)
            << to_string(b) << " counts, " << lanes << " lanes, width "
            << net.width();
      }
      ASSERT_EQ(engine::sort_batch(plan, inputs, rt, EngineBackend::kAuto),
                ref_sort)
          << "auto sort, " << lanes << " lanes";
      ASSERT_EQ(engine::count_batch(plan, inputs, rt, EngineBackend::kAuto),
                ref_count)
          << "auto counts, " << lanes << " lanes";
    }
  }
}

TEST(EngineCrossCheck, HopAccountingConsistency) {
  // Token-sim hop totals equal the analytic expectation on uniform loads
  // for networks with full layers.
  const Network net = make_k_network({2, 2, 2, 2});
  std::vector<Count> in(net.width(), 8);
  const auto sim =
      run_token_simulation(net, in, SchedulePolicy::kRoundRobin, 1);
  EXPECT_EQ(sim.hops,
            static_cast<std::uint64_t>(8 * net.width()) * net.depth());
}

// Given a pool, the packed entries hand 64-lane blocks to whichever worker
// asks next, and the in-place tier stripes a batch's lanes into contiguous
// ranges, one per pool task. Lane results must depend on neither: sweep
// pool sizes against lane counts that give fewer lanes (or blocks) than
// workers, both sides of a block boundary, ragged last blocks and stripes
// that end inside an execution block, at stripe grains from one lane up.
struct StripeCase {
  std::size_t threads;
  std::size_t lanes;
};

void PrintTo(const StripeCase& c, std::ostream* os) {
  *os << c.threads << "t_" << c.lanes << "l";
}

class ThreadedStriping : public ::testing::TestWithParam<StripeCase> {};

TEST_P(ThreadedStriping, BitIdenticalToSerialBatchAndInterpreters) {
  const auto [threads, lanes] = GetParam();
  ThreadPool pool(threads);
  std::mt19937_64 rng(1000 * threads + lanes);
  // K(2x3x2) has 4- and 6-wide gates: wide balancers for the counts, CE
  // expansions for the sort.
  for (const Network& net : {make_k_network({2, 3, 2}),
                             make_l_network({3, 2, 2}),
                             make_bitonic_network(3)}) {
    const ExecutionPlan plan = compile_plan(net);
    std::vector<std::vector<Count>> inputs;
    inputs.reserve(lanes);
    for (std::size_t j = 0; j < lanes; ++j) {
      inputs.push_back(random_count_vector(
          rng, net.width(), 1 + static_cast<Count>(rng() % 100)));
    }

    const auto sorted = plan_sort_batch(plan, inputs, &pool);
    const auto counted = plan_count_batch(plan, inputs, &pool);
    ASSERT_EQ(sorted, plan_sort_batch(plan, inputs));
    ASSERT_EQ(counted, plan_count_batch(plan, inputs));
    for (std::size_t j = 0; j < lanes; ++j) {
      ASSERT_EQ(sorted[j], comparator_output_counts(net, inputs[j]))
          << "sort, lane " << j << ", width " << net.width();
      ASSERT_EQ(counted[j], output_counts(net, inputs[j]))
          << "count, lane " << j << ", width " << net.width();
    }

    // The in-place tier at explicit grains: grain 1 hands every worker a
    // stripe whenever lanes >= threads.
    const engine::Batch<Count> packed =
        engine::pack_batch<Count>(inputs, net.width());
    engine::Batch<Count> serial_sort = packed;
    engine::Batch<Count> serial_count = packed;
    run_plan_batch(plan, serial_sort);
    run_plan_counts_batch(plan, serial_count);
    for (const std::size_t grain : {1u, 3u, 64u}) {
      engine::Batch<Count> striped_sort = packed;
      engine::Batch<Count> striped_count = packed;
      run_plan_batch(plan, striped_sort, &pool, grain);
      run_plan_counts_batch(plan, striped_count, &pool, grain);
      const std::size_t cells = net.width() * lanes;
      ASSERT_TRUE(std::equal(striped_sort.data(),
                             striped_sort.data() + cells, serial_sort.data()))
          << "sort, grain " << grain << ", width " << net.width();
      ASSERT_TRUE(std::equal(striped_count.data(),
                             striped_count.data() + cells,
                             serial_count.data()))
          << "count, grain " << grain << ", width " << net.width();
    }
  }
}

std::vector<StripeCase> stripe_cases() {
  std::vector<StripeCase> out;
  for (const std::size_t threads : {1u, 2u, 3u, 5u}) {
    for (const std::size_t lanes : {1u, 7u, 130u, 600u}) {
      out.push_back({threads, lanes});
    }
  }
  // Block boundaries: 63 lanes is one block for 8 workers, 4097 is 64 full
  // blocks and a one-lane remainder.
  for (const std::size_t threads : {1u, 3u, 8u}) {
    for (const std::size_t lanes : {63u, 64u, 65u, 127u, 128u, 129u, 4097u}) {
      out.push_back({threads, lanes});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(PoolSizesTimesLanes, ThreadedStriping,
                         ::testing::ValuesIn(stripe_cases()));

}  // namespace
}  // namespace scn
