// Real multithreaded traversal: quiescent outputs match count propagation,
// the step property holds, resets work, and the arrival-schedule
// generators (sim/schedule.h) are deterministic and step-preserving.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>

#include "core/k_network.h"
#include "core/l_network.h"
#include "sim/concurrent_sim.h"
#include "sim/count_sim.h"
#include "sim/schedule.h"
#include "verify/checkers.h"

namespace scn {
namespace {

TEST(ConcurrentSim, SingleThreadMatchesCountPropagation) {
  const Network net = make_k_network({3, 2});
  ConcurrentNetwork cn(net);
  std::vector<Count> in(net.width(), 0);
  for (std::size_t i = 0; i < 25; ++i) {
    const Wire w = static_cast<Wire>(i % net.width());
    cn.traverse(w);
    in[static_cast<std::size_t>(w)] += 1;
  }
  EXPECT_EQ(cn.output_counts(), output_counts(net, in));
}

TEST(ConcurrentSim, MultithreadedOutputsHaveStepProperty) {
  const Network net = make_k_network({2, 2, 2, 2});
  ConcurrentNetwork cn(net);
  const ConcurrentRunResult res = run_concurrent(cn, 8, 2000, 123);
  EXPECT_EQ(res.tokens, 16000u);
  EXPECT_EQ(std::accumulate(res.outputs.begin(), res.outputs.end(), Count{0}),
            16000);
  EXPECT_TRUE(has_step_property(res.outputs))
      << format_sequence(res.outputs);
  EXPECT_TRUE(is_exact_step_output(res.outputs));
}

TEST(ConcurrentSim, MultithreadedLNetworkCounts) {
  const Network net = make_l_network({3, 2, 2});
  ConcurrentNetwork cn(net);
  const ConcurrentRunResult res = run_concurrent(cn, 6, 3000, 7);
  EXPECT_TRUE(is_exact_step_output(res.outputs))
      << format_sequence(res.outputs);
}

TEST(ConcurrentSim, ExitTicketsArePerPositionSequential) {
  const Network net = make_k_network({2, 2});
  ConcurrentNetwork cn(net);
  std::vector<std::uint64_t> seen_tickets;
  for (int i = 0; i < 12; ++i) {
    const auto ev = cn.traverse(static_cast<Wire>(i % 4));
    if (ev.position == 0) seen_tickets.push_back(ev.ticket);
  }
  for (std::size_t i = 0; i < seen_tickets.size(); ++i) {
    EXPECT_EQ(seen_tickets[i], i);
  }
}

TEST(ConcurrentSim, ResetRestoresInitialState) {
  const Network net = make_k_network({2, 3});
  ConcurrentNetwork cn(net);
  (void)run_concurrent(cn, 4, 500, 1);
  cn.reset();
  for (std::size_t i = 0; i < net.width(); ++i) {
    EXPECT_EQ(cn.exits(i), 0);
  }
  const ConcurrentRunResult res = run_concurrent(cn, 4, 500, 2);
  EXPECT_TRUE(is_exact_step_output(res.outputs));
}

TEST(ConcurrentSim, ManyThreadsSmallNetwork) {
  // Oversubscription stress: more threads than cores on a tiny network.
  const Network net = make_k_network({2, 2});
  ConcurrentNetwork cn(net);
  const std::size_t threads =
      std::max(8u, 2 * std::thread::hardware_concurrency());
  const ConcurrentRunResult res = run_concurrent(cn, threads, 1000, 3);
  EXPECT_TRUE(is_exact_step_output(res.outputs));
}

TEST(Schedule, ParseAndPrintRoundTrip) {
  for (const ScheduleKind kind :
       {ScheduleKind::kUniform, ScheduleKind::kBursty, ScheduleKind::kSkewed,
        ScheduleKind::kAdversarial}) {
    const auto parsed = parse_schedule(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_schedule("zipf").has_value());
}

TEST(Schedule, DeterministicUnderFixedSeed) {
  // The contract the saturation harness and benches rely on: a schedule is
  // a pure function of (width, params, thread).
  for (const ScheduleKind kind :
       {ScheduleKind::kUniform, ScheduleKind::kBursty, ScheduleKind::kSkewed,
        ScheduleKind::kAdversarial}) {
    ScheduleParams params;
    params.kind = kind;
    params.seed = 42;
    const auto a = schedule_prefix(16, params, 0, 500);
    const auto b = schedule_prefix(16, params, 0, 500);
    EXPECT_EQ(a, b) << to_string(kind);
    // Distinct threads get distinct streams (except adversarial, which
    // funnels every thread into one wire by design).
    const auto other = schedule_prefix(16, params, 1, 500);
    if (kind == ScheduleKind::kAdversarial) {
      EXPECT_EQ(a, other);
    } else {
      EXPECT_NE(a, other) << to_string(kind);
    }
    // A different seed moves the stream.
    params.seed = 43;
    EXPECT_NE(schedule_prefix(16, params, 0, 500), a) << to_string(kind);
  }
}

TEST(Schedule, WiresStayInRange) {
  for (const ScheduleKind kind :
       {ScheduleKind::kUniform, ScheduleKind::kBursty, ScheduleKind::kSkewed,
        ScheduleKind::kAdversarial}) {
    ScheduleParams params;
    params.kind = kind;
    for (const Wire w : schedule_prefix(6, params, 2, 1000)) {
      EXPECT_GE(w, 0);
      EXPECT_LT(w, 6);
    }
  }
}

TEST(Schedule, BurstyRunsHaveConfiguredLength) {
  ScheduleParams params;
  params.kind = ScheduleKind::kBursty;
  params.burst_len = 32;
  const auto wires = schedule_prefix(16, params, 0, 320);
  for (std::size_t i = 0; i < wires.size(); i += params.burst_len) {
    for (std::size_t j = 1; j < params.burst_len; ++j) {
      EXPECT_EQ(wires[i + j], wires[i]) << "burst broken at " << i + j;
    }
  }
}

TEST(Schedule, AdversarialFunnelsEveryThreadIntoOneWire) {
  ScheduleParams params;
  params.kind = ScheduleKind::kAdversarial;
  params.seed = 9;
  const Wire hot = schedule_prefix(8, params, 0, 1).front();
  for (std::size_t t = 0; t < 4; ++t) {
    for (const Wire w : schedule_prefix(8, params, t, 100)) {
      EXPECT_EQ(w, hot);
    }
  }
}

TEST(Schedule, SkewedConcentratesLoad) {
  ScheduleParams params;
  params.kind = ScheduleKind::kSkewed;
  params.skew = 1.5;
  std::vector<std::size_t> hist(16, 0);
  // Aggregate over several threads: the hot wires are shared (the rank
  // permutation comes from the shared seed), so skew shows in the sum.
  for (std::size_t t = 0; t < 4; ++t) {
    for (const Wire w : schedule_prefix(16, params, t, 2500)) {
      ++hist[static_cast<std::size_t>(w)];
    }
  }
  const std::size_t hottest = *std::max_element(hist.begin(), hist.end());
  const std::size_t coldest = *std::min_element(hist.begin(), hist.end());
  EXPECT_GT(hottest, 4 * std::max<std::size_t>(coldest, 1));
}

class ScheduleStepTest
    : public ::testing::TestWithParam<std::tuple<ScheduleKind, std::size_t>> {
};

TEST_P(ScheduleStepTest, ConcurrentRunsKeepStepProperty) {
  // Whatever the arrival pattern, a counting network's quiescent outputs
  // must be THE step sequence — including the adversarial single-wire
  // funnel, which stresses one entry path hardest.
  const auto [kind, threads] = GetParam();
  const Network net = make_k_network({2, 2, 2});
  ConcurrentNetwork cn(net);
  ScheduleParams params;
  params.kind = kind;
  const ConcurrentRunResult res = run_concurrent(cn, threads, 2000, params);
  EXPECT_EQ(res.tokens, threads * 2000u);
  EXPECT_TRUE(is_exact_step_output(res.outputs))
      << to_string(kind) << " x" << threads << ": "
      << format_sequence(res.outputs);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedules, ScheduleStepTest,
    ::testing::Combine(::testing::Values(ScheduleKind::kUniform,
                                         ScheduleKind::kBursty,
                                         ScheduleKind::kSkewed,
                                         ScheduleKind::kAdversarial),
                       ::testing::Values(std::size_t{2}, std::size_t{4},
                                         std::size_t{8})),
    [](const auto& param_info) {
      return std::string(to_string(std::get<0>(param_info.param))) + "_x" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace scn
