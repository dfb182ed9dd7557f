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
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <numeric>
#include <ostream>
#include <random>
#include <string>
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

// While set on a thread, each allocation it makes first waits kSlowNew.
// The caller of a pooled plan_sort_batch / plan_count_batch allocates every
// output, so slowing its allocations makes the other threads' walks outrun
// the allocation frontier. Meanwhile every allocation on another thread is
// counted: a walk that ran past the frontier would allocate outputs there.
thread_local bool t_slow_new = false;
constexpr std::chrono::microseconds kSlowNew{5};
std::atomic<bool> g_count_other_news{false};
std::atomic<std::size_t> g_other_news{0};

// Out of line, so that no inlined delete reads as free() of a new'd pointer.
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  if (t_slow_new) {
    const auto until = std::chrono::steady_clock::now() + kSlowNew;
    while (std::chrono::steady_clock::now() < until) {
    }
  } else if (g_count_other_news.load(std::memory_order_relaxed)) {
    g_other_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

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
  for (const std::size_t threads : {1u, 3u, 4u, 8u}) {
    for (const std::size_t lanes : {63u, 64u, 65u, 127u, 128u, 129u, 4097u}) {
      out.push_back({threads, lanes});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(PoolSizesTimesLanes, ThreadedStriping,
                         ::testing::ValuesIn(stripe_cases()));

// A pooled packed call overlaps the caller's output allocation with the
// other threads' walks. Whether the walk runs ahead of the allocation or
// the caller runs everything alone, every lane must come out as the serial
// call and the interpreters have it.
enum class Overlap { kSlowAllocation, kCallerOnly, kNested };

void expect_packed_outputs(ThreadPool& pool, Overlap mode) {
  std::mt19937_64 rng(77);
  for (const Network& net :
       {make_k_network({2, 3, 2}), make_l_network({2, 2, 2, 2, 2})}) {
    const ExecutionPlan plan = compile_plan(net);
    std::vector<std::vector<Count>> inputs;
    for (std::size_t j = 0; j < 4097; ++j) {
      inputs.push_back(random_count_vector(
          rng, net.width(), 1 + static_cast<Count>(rng() % 100)));
    }
    const auto serial_sort = plan_sort_batch(plan, inputs);
    const auto serial_count = plan_count_batch(plan, inputs);
    for (std::size_t j = 0; j < inputs.size(); j += 97) {
      ASSERT_EQ(serial_sort[j], comparator_output_counts(net, inputs[j]));
      ASSERT_EQ(serial_count[j], output_counts(net, inputs[j]));
    }
    std::vector<std::vector<Count>> sorted;
    std::vector<std::vector<Count>> counted;
    const auto pooled = [&] {
      sorted = plan_sort_batch(plan, inputs, &pool);
      counted = plan_count_batch(plan, inputs, &pool);
    };
    if (mode == Overlap::kNested) {
      // Chunk 0 of another call runs on this thread, and a call made
      // inside a body runs inline.
      pool.parallel_for(2, 1, [&](std::size_t begin, std::size_t) {
        if (begin == 0) pooled();
      });
    } else if (mode == Overlap::kCallerOnly) {
      pooled();
    } else {
      g_other_news = 0;
      g_count_other_news = true;
      t_slow_new = true;
      pooled();
      t_slow_new = false;
      g_count_other_news = false;
      // Workers allocate nothing but, at a new width, their block buffer.
      EXPECT_LT(g_other_news.load(), pool.size()) << "width " << net.width();
    }
    ASSERT_EQ(sorted, serial_sort) << "width " << net.width();
    ASSERT_EQ(counted, serial_count) << "width " << net.width();
  }
}

TEST(PackedOverlap, WalkOutrunsTheAllocationFrontier) {
  // Every allocation on the caller waits 5 us, so the 4,097 outputs take
  // about 20 ms to allocate while the workers walk every block in well
  // under that and wait at the frontier to unpack.
  ThreadPool pool(4);
  expect_packed_outputs(pool, Overlap::kSlowAllocation);
}

TEST(PackedOverlap, CallerIsTheOnlyThread) {
  ThreadPool one(1);
  expect_packed_outputs(one, Overlap::kCallerOnly);
  ThreadPool pool(4);
  expect_packed_outputs(pool, Overlap::kNested);
}

// plan_sort_batch walks a block at 32-bit lanes when every value in it
// round-trips through int32_t, and at 64-bit lanes otherwise. Values at and
// just past the int32_t range, blocks that hold one outlier among blocks
// that fit, ragged last blocks of either kind and runs of equal keys must
// all sort exactly as the interpreter sorts them, serially and pooled.
constexpr Count kInt32Max = std::numeric_limits<std::int32_t>::max();
constexpr Count kInt32Min = std::numeric_limits<std::int32_t>::min();
constexpr Count kInt64Max = std::numeric_limits<Count>::max();
constexpr Count kInt64Min = std::numeric_limits<Count>::min();

std::vector<Network> lane_type_networks() {
  // L(2^5) is the sort_batch workload's plan; K(2x3x2) sorts through
  // compare-exchange expansions of wide gates; Batcher w=24 is not a power
  // of two.
  std::vector<Network> nets;
  nets.push_back(make_l_network({2, 2, 2, 2, 2}));
  nets.push_back(make_k_network({2, 3, 2}));
  nets.push_back(make_batcher_network(24));
  return nets;
}

// `lanes` vectors of values in [0, 1000), drawn from `rng`.
std::vector<std::vector<Count>> small_values(std::mt19937_64& rng,
                                             std::size_t width,
                                             std::size_t lanes) {
  std::vector<std::vector<Count>> inputs(lanes, std::vector<Count>(width));
  for (std::vector<Count>& in : inputs) {
    for (Count& x : in) x = static_cast<Count>(rng() % 1000);
  }
  return inputs;
}

void expect_sorted_like_interpreter(
    const Network& net, const std::vector<std::vector<Count>>& inputs,
    const std::string& what) {
  const ExecutionPlan plan = compile_plan(net);
  std::vector<std::vector<Count>> expected;
  expected.reserve(inputs.size());
  for (const std::vector<Count>& in : inputs) {
    expected.push_back(comparator_output_counts(net, in));
  }
  ASSERT_EQ(plan_sort_batch(plan, inputs), expected)
      << what << ", serial, width " << net.width();
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    ASSERT_EQ(plan_sort_batch(plan, inputs, &pool), expected)
        << what << ", pool of " << threads << ", width " << net.width();
  }
}

TEST(LaneType, ValuesAtAndPastTheInt32Range) {
  const std::vector<Count> edges = {kInt32Max,     kInt32Min,
                                    kInt32Max + 1, kInt32Min - 1,
                                    kInt64Min,     kInt64Max};
  std::mt19937_64 rng(101);
  for (const Network& net : lane_type_networks()) {
    // Each edge value alone in an otherwise small block, at a lane and wire
    // that move from block to block; then blocks mixing all of them.
    for (std::size_t e = 0; e < edges.size(); ++e) {
      auto inputs = small_values(rng, net.width(), 3 * 64);
      for (std::size_t k = 0; k < 3; ++k) {
        inputs[64 * k + 7 * k + e][(3 * k + e) % net.width()] = edges[e];
      }
      expect_sorted_like_interpreter(net, inputs,
                                     "edge value " + std::to_string(edges[e]));
    }
    auto inputs = small_values(rng, net.width(), 130);
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      for (std::size_t w = 0; w < net.width(); w += 2) {
        inputs[j][w] = edges[(j + w) % edges.size()];
      }
    }
    expect_sorted_like_interpreter(net, inputs, "mixed edge values");
    // The int32_t range exactly: every block fits.
    for (std::vector<Count>& in : inputs) {
      for (std::size_t w = 0; w < in.size(); ++w) {
        in[w] = w % 2 == 0 ? kInt32Max : kInt32Min;
      }
    }
    expect_sorted_like_interpreter(net, inputs, "int32 extremes");
  }
}

TEST(LaneType, OneOutlierAmongBlocksThatFit) {
  // Five blocks of small values; one lane of the third holds a value just
  // past the int32_t range, so that block alone walks at 64 bits.
  std::mt19937_64 rng(102);
  for (const Network& net : lane_type_networks()) {
    for (const Count outlier : {kInt32Max + 1, kInt32Min - 1}) {
      auto inputs = small_values(rng, net.width(), 5 * 64);
      inputs[2 * 64 + 41][net.width() / 2] = outlier;
      expect_sorted_like_interpreter(net, inputs,
                                     "outlier " + std::to_string(outlier));
    }
  }
}

TEST(LaneType, RaggedLastBlockThatFitsAndThatDoesNot) {
  std::mt19937_64 rng(103);
  for (const Network& net : lane_type_networks()) {
    auto inputs = small_values(rng, net.width(), 3 * 64 + 17);
    expect_sorted_like_interpreter(net, inputs, "ragged block that fits");
    inputs.back()[0] = kInt64Max;
    inputs[3 * 64][net.width() - 1] = kInt32Min - 1;
    expect_sorted_like_interpreter(net, inputs,
                                   "ragged block that does not fit");
  }
}

TEST(LaneType, ManyEqualKeys) {
  std::mt19937_64 rng(104);
  for (const Network& net : lane_type_networks()) {
    for (const Count key : {Count{0}, Count{7}, kInt32Max, kInt32Max + 1}) {
      std::vector<std::vector<Count>> inputs(
          129, std::vector<Count>(net.width(), key));
      expect_sorted_like_interpreter(net, inputs,
                                     "all keys " + std::to_string(key));
    }
    // Three distinct keys, so most compare-exchanges see a tie.
    auto inputs = small_values(rng, net.width(), 129);
    for (std::vector<Count>& in : inputs) {
      for (Count& x : in) x %= 3;
    }
    expect_sorted_like_interpreter(net, inputs, "three keys");
  }
}

}  // namespace
}  // namespace scn
