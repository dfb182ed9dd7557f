// Observability layer: registry counters/histograms under concurrent
// updates, snapshot consistency, Chrome trace JSON structure, the engine's
// per-layer spans, and the ConcurrentNetwork visit probe against the
// analytical contention model.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/k_network.h"
#include "core/l_network.h"
#include "engine/batch_engine.h"
#include "engine/execution_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/contention_model.h"
#include "perf/thread_pool.h"
#include "seq/generators.h"
#include "sim/concurrent_sim.h"

namespace scn {
namespace {

// -------------------------------------------------------------- metrics

TEST(Metrics, CounterConcurrentAddsAreExact) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("test.adds");
  constexpr int kTasks = 16;
  constexpr int kAddsPerTask = 10000;
  ThreadPool pool(4);
  pool.parallel_for(kTasks, 1, [&c](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      for (int i = 0; i < kAddsPerTask; ++i) c.add(1);
    }
  });
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kTasks) * kAddsPerTask);
  EXPECT_EQ(reg.value("test.adds"),
            static_cast<std::uint64_t>(kTasks) * kAddsPerTask);
}

TEST(Metrics, CounterSameNameIsSameObject) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("test.same");
  obs::Counter& b = reg.counter("test.same");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Metrics, HistogramConcurrentRecordsKeepExactCountAndSum) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("test.hist");
  constexpr int kTasks = 8;
  constexpr std::uint64_t kPerTask = 5000;
  ThreadPool pool(4);
  pool.parallel_for(kTasks, 1, [&h](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      for (std::uint64_t v = 1; v <= kPerTask; ++v) h.record(v);
    }
  });
  const obs::Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kTasks) * kPerTask);
  EXPECT_EQ(snap.sum, kTasks * (kPerTask * (kPerTask + 1) / 2));
  EXPECT_DOUBLE_EQ(snap.mean(), (kPerTask + 1) / 2.0);
}

TEST(Metrics, HistogramBucketsAndQuantileBounds) {
  obs::Histogram h;
  // bucket b = bit_width(v) covers [2^(b-1), 2^b); quantiles answer the
  // containing bucket's upper bound 2^b - 1.
  h.record(0);    // bucket 0
  h.record(1);    // bucket 1
  h.record(2);    // bucket 2
  h.record(3);    // bucket 2
  h.record(100);  // bucket 7 (64..127)
  const obs::Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 106u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[7], 1u);
  EXPECT_EQ(snap.quantile_upper_bound(0.2), 0u);   // first of 5
  EXPECT_EQ(snap.quantile_upper_bound(0.5), 3u);   // 3rd value is in bucket 2
  EXPECT_EQ(snap.quantile_upper_bound(0.99), 127u);
  EXPECT_EQ(snap.max_upper_bound(), 127u);
}

TEST(Metrics, EmptyHistogramIsZeroes) {
  const obs::Histogram::Snapshot snap = obs::Histogram().snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
  EXPECT_EQ(snap.quantile_upper_bound(0.5), 0u);
  EXPECT_EQ(snap.max_upper_bound(), 0u);
}

TEST(Metrics, SnapshotIsSortedByNameWithCorrectKinds) {
  obs::MetricsRegistry reg;
  reg.counter("c.second").add(7);
  reg.histogram("b.hist").record(42);
  reg.register_gauge("a.gauge", [] { return std::uint64_t{11}; });
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.gauge");
  EXPECT_EQ(snap[0].kind, obs::MetricKind::kGauge);
  EXPECT_EQ(snap[0].value, 11u);
  EXPECT_EQ(snap[1].name, "b.hist");
  EXPECT_EQ(snap[1].kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(snap[1].histogram.count, 1u);
  EXPECT_EQ(snap[1].histogram.sum, 42u);
  EXPECT_EQ(snap[2].name, "c.second");
  EXPECT_EQ(snap[2].kind, obs::MetricKind::kCounter);
  EXPECT_EQ(snap[2].value, 7u);
  EXPECT_STREQ(obs::to_string(obs::MetricKind::kGauge), "gauge");
}

TEST(Metrics, ResetZeroesCountersAndHistogramsButSamplesGaugesLive) {
  obs::MetricsRegistry reg;
  std::uint64_t backing = 5;
  obs::Counter& c = reg.counter("r.counter");
  obs::Histogram& h = reg.histogram("r.hist");
  reg.register_gauge("r.gauge", [&backing] { return backing; });
  c.add(9);
  h.record(16);
  reg.reset();
  backing = 6;
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(reg.value("r.gauge"), 6u);  // gauges are live views, not state
  // Addresses stay valid after reset: the macro-cached references work.
  c.add(2);
  EXPECT_EQ(reg.value("r.counter"), 2u);
}

TEST(Metrics, UnknownNameReadsAsZero) {
  const obs::MetricsRegistry reg;
  EXPECT_EQ(reg.value("never.registered"), 0u);
}

TEST(Metrics, CrossKindNameCollisionNeverInvalidatesExistingMetric) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("x.name");
  c.add(4);
  // Registering a gauge under a counter's name must not destroy the
  // counter (call sites hold cached references into it).
  reg.register_gauge("x.name", [] { return std::uint64_t{99}; });
  c.add(1);  // still a valid object
  EXPECT_EQ(reg.value("x.name"), 5u);  // and still the reported metric
  // Requesting the wrong kind for a bound name yields a usable sink
  // instead of throwing; the registered metric keeps reporting.
  obs::Histogram& hist_sink = reg.histogram("x.name");
  hist_sink.record(7);
  EXPECT_EQ(reg.value("x.name"), 5u);
  reg.register_gauge("g.name", [] { return std::uint64_t{1}; });
  obs::Counter& counter_sink = reg.counter("g.name");
  counter_sink.add(3);
  EXPECT_EQ(reg.value("g.name"), 1u);  // gauge untouched
}

TEST(Metrics, GaugeReregistrationReplacesCallback) {
  obs::MetricsRegistry reg;
  reg.register_gauge("g.live", [] { return std::uint64_t{1}; });
  reg.register_gauge("g.live", [] { return std::uint64_t{2}; });
  EXPECT_EQ(reg.value("g.live"), 2u);
}

// --------------------------------------------------------------- tracer

// Structural check, not a full parser: braces/brackets balance outside
// string literals, so the file loads in chrome://tracing.
void expect_balanced_json(const std::string& json) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Trace, RecordedEventsExportChromeCompleteEvents) {
  obs::Tracer tracer;
  tracer.start();
  tracer.record_complete("work", "test", 1500, 2500, "{\"k\":1}");
  tracer.record_complete("more \"quoted\"", "test", 5000, 1000);
  tracer.stop();
  EXPECT_EQ(tracer.event_count(), 2u);
  EXPECT_EQ(tracer.dropped_count(), 0u);
  const std::string json = tracer.chrome_trace_json();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"work\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // ns are exported as fractional microseconds.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"k\":1}"), std::string::npos);
  // Quotes in names are escaped, keeping the JSON loadable.
  EXPECT_NE(json.find("more \\\"quoted\\\""), std::string::npos);
}

TEST(Trace, InactiveTracerRecordsNothing) {
  obs::Tracer tracer;
  tracer.record_complete("ignored", "test", 0, 1);
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.now_ns(), 0u);
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
  expect_balanced_json(json);
}

TEST(Trace, StartClearsPreviousSession) {
  obs::Tracer tracer;
  tracer.start();
  tracer.record_complete("old", "test", 0, 1);
  tracer.stop();
  tracer.start();
  tracer.stop();
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Trace, ScopedSpanRecordsOnlyWhileSharedTracerActive) {
  obs::Tracer& shared = obs::Tracer::shared();
  shared.clear();
  { const obs::ScopedSpan idle("test", "not-recorded"); }
  EXPECT_EQ(shared.event_count(), 0u);
  shared.start();
  {
    obs::ScopedSpan span("test", "recorded");
    EXPECT_TRUE(span.armed());
    span.set_args_json("{\"n\":3}");
  }
  // A span that straddles stop() is dropped, not recorded half-open.
  const std::size_t recorded = shared.event_count();
  obs::ScopedSpan straddler("test", "straddles-stop");
  shared.stop();
  EXPECT_EQ(recorded, 1u);
  EXPECT_EQ(shared.event_count(), 1u);
  const std::string json = shared.chrome_trace_json();
  EXPECT_NE(json.find("\"name\":\"recorded\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"n\":3}"), std::string::npos);
  shared.clear();
}

TEST(Trace, TraceSessionWritesLoadableFile) {
  const std::string path = testing::TempDir() + "scnet_obs_test_trace.json";
  {
    obs::TraceSession session(path);
    EXPECT_EQ(session.path(), path);
    obs::ScopedSpan span("test", "session-span");
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"session-span\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Trace, TraceSessionReportsWriteFailure) {
  const std::string good = testing::TempDir() + "scnet_obs_test_finish.json";
  {
    obs::TraceSession session(good);
    EXPECT_FALSE(session.ok());  // not written yet
    EXPECT_TRUE(session.finish());
    EXPECT_TRUE(session.ok());
    EXPECT_TRUE(session.finish());  // idempotent
  }
  std::remove(good.c_str());

  obs::TraceSession bad(testing::TempDir() +
                        "scnet_obs_no_such_dir/trace.json");
  EXPECT_FALSE(bad.finish());
  EXPECT_FALSE(bad.ok());
}

// -------------------------------------------------------- engine spans

struct ExportedEvent {
  std::string name;
  std::string category;
  double ts_us = 0;
  double dur_us = 0;
  std::size_t lanes = 0;  // the "lanes" arg, 0 when absent
};

// Parses the events chrome_trace_json() writes (flat args objects only).
std::vector<ExportedEvent> exported_events(const std::string& json) {
  static const std::regex event(
      R"re(\{"name":"([^"]*)","cat":"([^"]*)","ph":"X","pid":1,"tid":\d+,)re"
      R"re("ts":([0-9.]+),"dur":([0-9.]+)(,"args":\{[^}]*\})?\})re");
  static const std::regex lanes(R"re("lanes":(\d+))re");
  std::vector<ExportedEvent> out;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), event);
       it != std::sregex_iterator(); ++it) {
    ExportedEvent ev;
    ev.name = (*it)[1];
    ev.category = (*it)[2];
    ev.ts_us = std::stod((*it)[3]);
    ev.dur_us = std::stod((*it)[4]);
    const std::string args = (*it)[5];
    std::smatch m;
    if (std::regex_search(args, m, lanes)) ev.lanes = std::stoul(m[1]);
    out.push_back(ev);
  }
  return out;
}

std::vector<ExportedEvent> with_category(const std::vector<ExportedEvent>& all,
                                         const std::string& category) {
  std::vector<ExportedEvent> out;
  for (const ExportedEvent& ev : all) {
    if (ev.category == category) out.push_back(ev);
  }
  return out;
}

// Runs `fn` with the shared tracer recording; returns the exported events.
template <typename Fn>
std::vector<ExportedEvent> traced(Fn fn) {
  obs::Tracer& tracer = obs::Tracer::shared();
  tracer.start();
  fn();
  tracer.stop();
  std::vector<ExportedEvent> events =
      exported_events(tracer.chrome_trace_json());
  tracer.clear();
  return events;
}

TEST(Trace, EngineLayerSpansTimeTheBlockedWalk) {
  if (!obs::compiled_in()) GTEST_SKIP() << "engine spans compiled out";
  const ExecutionPlan plan = compile_plan(make_l_network({3, 2, 2}));
  const std::size_t depth = plan.depth();
  constexpr std::size_t kLanes = 600;  // ten 64-lane blocks, the last ragged
  std::mt19937_64 rng(11);
  std::vector<std::vector<Count>> inputs;
  for (std::size_t j = 0; j < kLanes; ++j) {
    inputs.push_back(random_count_vector(rng, plan.width(),
                                         1 + static_cast<Count>(j % 97)));
  }
  const auto sorted = plan_sort_batch(plan, inputs);
  const auto counted = plan_count_batch(plan, inputs);
  // Exported timestamps are rounded to 1 ns; allow that per summed value.
  const double rounding_us = 0.0005 * static_cast<double>(depth + 1);

  // Serial: one event per layer, named in order, each covering every lane,
  // laid end to end inside the enclosing call's span.
  for (const bool sort : {true, false}) {
    const auto events = traced([&] {
      if (sort) {
        EXPECT_EQ(plan_sort_batch(plan, inputs), sorted);
      } else {
        EXPECT_EQ(plan_count_batch(plan, inputs), counted);
      }
    });
    const auto layers = with_category(events, "engine.layer");
    ASSERT_EQ(layers.size(), depth) << (sort ? "sort" : "count");
    double layer_sum = 0;
    for (std::size_t i = 0; i < depth; ++i) {
      EXPECT_EQ(layers[i].name, "layer " + std::to_string(i));
      EXPECT_EQ(layers[i].lanes, kLanes);
      if (i > 0) {
        EXPECT_NEAR(layers[i].ts_us, layers[i - 1].ts_us + layers[i - 1].dur_us,
                    0.002);
      }
      layer_sum += layers[i].dur_us;
    }
    const std::string call = sort ? "plan_sort_batch" : "plan_count_batch";
    bool found = false;
    for (const ExportedEvent& ev : with_category(events, "engine")) {
      if (ev.name != call) continue;
      found = true;
      EXPECT_GE(layers.front().ts_us, ev.ts_us);
      EXPECT_LE(layer_sum, ev.dur_us + rounding_us);
    }
    EXPECT_TRUE(found) << call;
  }

  // Pool: one event per layer per worker; each layer's workers cover every
  // lane exactly once between them.
  ThreadPool pool(3);
  const std::size_t workers = 3;  // min(pool size, ceil(600 / 64))
  for (const bool sort : {true, false}) {
    const auto events = traced([&] {
      if (sort) {
        EXPECT_EQ(plan_sort_batch(plan, inputs, &pool), sorted);
      } else {
        EXPECT_EQ(plan_count_batch(plan, inputs, &pool), counted);
      }
    });
    const auto layers = with_category(events, "engine.layer");
    ASSERT_EQ(layers.size(), depth * workers) << (sort ? "sort" : "count");
    std::map<std::string, std::size_t> lanes_by_layer;
    for (const ExportedEvent& ev : layers) lanes_by_layer[ev.name] += ev.lanes;
    ASSERT_EQ(lanes_by_layer.size(), depth);
    for (const auto& [name, lanes] : lanes_by_layer) {
      EXPECT_EQ(lanes, kLanes) << name;
    }
  }

  // One vector is the same walk at one lane.
  std::vector<Count> values = inputs.front();
  const auto events = traced([&] { run_plan(plan, values); });
  const auto layers = with_category(events, "engine.layer");
  ASSERT_EQ(layers.size(), depth);
  for (const ExportedEvent& ev : layers) EXPECT_EQ(ev.lanes, 1u);
}

TEST(Trace, PooledPackedWalkRecordsOneLayerSetPerWorker) {
  // Workers take many blocks each, but each records its per-layer times
  // summed over its blocks: at most depth x P engine.layer events, however
  // many blocks the call has.
  if (!obs::compiled_in()) GTEST_SKIP() << "engine spans compiled out";
  const ExecutionPlan plan = compile_plan(make_l_network({2, 2, 2, 2}));
  const std::size_t depth = plan.depth();
  constexpr std::size_t kLanes = 4097;  // 65 blocks of 64 lanes
  std::mt19937_64 rng(19);
  std::vector<std::vector<Count>> inputs;
  for (std::size_t j = 0; j < kLanes; ++j) {
    inputs.push_back(random_count_vector(rng, plan.width(), 50));
  }
  const auto sorted = plan_sort_batch(plan, inputs);
  for (const std::size_t threads : {1u, 3u, 8u}) {
    ThreadPool pool(threads);
    const auto events = traced(
        [&] { EXPECT_EQ(plan_sort_batch(plan, inputs, &pool), sorted); });
    const auto layers = with_category(events, "engine.layer");
    EXPECT_LE(layers.size(), depth * threads) << threads << " threads";
    EXPECT_EQ(layers.size() % depth, 0u) << threads << " threads";
    std::map<std::string, std::size_t> lanes_by_layer;
    for (const ExportedEvent& ev : layers) lanes_by_layer[ev.name] += ev.lanes;
    ASSERT_EQ(lanes_by_layer.size(), depth) << threads << " threads";
    for (const auto& [name, lanes] : lanes_by_layer) {
      EXPECT_EQ(lanes, kLanes) << name << ", " << threads << " threads";
    }
  }
}

TEST(Metrics, PooledBatchRecordsTheThreadsThatRanABlock) {
  // engine.batch.threads: one value per pooled call, recorded on the
  // caller, counting the threads that ran at least one block.
  if (!obs::compiled_in()) GTEST_SKIP() << "engine metrics compiled out";
  const ExecutionPlan plan = compile_plan(make_l_network({2, 2, 2, 2}));
  std::mt19937_64 rng(23);
  std::vector<std::vector<Count>> inputs;
  for (std::size_t j = 0; j < 4097; ++j) {
    inputs.push_back(random_count_vector(rng, plan.width(), 50));
  }
  obs::Histogram& threads =
      obs::MetricsRegistry::shared().histogram("engine.batch.threads");
  const auto before_serial = threads.snapshot();
  (void)plan_sort_batch(plan, inputs);
  EXPECT_EQ(threads.snapshot().count, before_serial.count)
      << "a serial call records nothing";
  for (const std::size_t size : {1u, 3u, 8u}) {
    ThreadPool pool(size);
    for (int call = 0; call < 20; ++call) {
      const auto before = threads.snapshot();
      (void)(call % 2 == 0 ? plan_sort_batch(plan, inputs, &pool)
                           : plan_count_batch(plan, inputs, &pool));
      const auto after = threads.snapshot();
      ASSERT_EQ(after.count, before.count + 1) << size << " threads";
      const std::uint64_t ran = after.sum - before.sum;
      EXPECT_GE(ran, 1u) << size << " threads";
      EXPECT_LE(ran, size) << size << " threads";
    }
  }
}

TEST(Metrics, SortBatchRecordsTheBlocksWalkedAt32Bits) {
  // engine.batch.narrow_blocks: one value per plan_sort_batch call, serial
  // or pooled, recorded on the caller: the blocks whose values all fit in
  // int32_t and so were walked at 32-bit lanes.
  if (!obs::compiled_in()) GTEST_SKIP() << "engine metrics compiled out";
  const ExecutionPlan plan = compile_plan(make_l_network({2, 2, 2, 2}));
  constexpr std::size_t kLanes = 4097;  // 65 blocks of 64 lanes
  constexpr std::uint64_t kBlocks = 65;
  std::mt19937_64 rng(29);
  std::vector<std::vector<Count>> inputs;
  for (std::size_t j = 0; j < kLanes; ++j) {
    inputs.push_back(random_count_vector(rng, plan.width(), 50));
  }
  std::vector<std::vector<Count>> one_wide = inputs;
  one_wide[100][3] = Count{1} << 31;  // INT32_MAX + 1, in block 1
  obs::Histogram& narrow =
      obs::MetricsRegistry::shared().histogram("engine.batch.narrow_blocks");
  const auto expect_narrow = [&](const auto& call, std::uint64_t blocks,
                                 const std::string& what) {
    const auto before = narrow.snapshot();
    (void)call();
    const auto after = narrow.snapshot();
    ASSERT_EQ(after.count, before.count + 1) << what;
    EXPECT_EQ(after.sum - before.sum, blocks) << what;
  };
  expect_narrow([&] { return plan_sort_batch(plan, inputs); }, kBlocks,
                "serial");
  expect_narrow([&] { return plan_sort_batch(plan, one_wide); },
                kBlocks - 1, "serial, one wide block");
  for (const std::size_t size : {1u, 3u, 8u}) {
    ThreadPool pool(size);
    const std::string threads = std::to_string(size) + " threads";
    expect_narrow([&] { return plan_sort_batch(plan, inputs, &pool); },
                  kBlocks, threads);
    expect_narrow([&] { return plan_sort_batch(plan, one_wide, &pool); },
                  kBlocks - 1, threads + ", one wide block");
  }
  const auto before_count = narrow.snapshot();
  (void)plan_count_batch(plan, inputs);
  EXPECT_EQ(narrow.snapshot().count, before_count.count)
      << "counts are always walked at 64 bits and record nothing";
}

// ---------------------------------------------------------- visit probe

TEST(VisitProbe, OffByDefaultAndEmpty) {
  const Network net = make_k_network({2, 2});
  ConcurrentNetwork cn(net);
  EXPECT_FALSE(cn.visit_probe_enabled());
  EXPECT_TRUE(cn.gate_visits().empty());
  cn.traverse(0);  // no probe: traversal must still work
  EXPECT_TRUE(cn.gate_visits().empty());
}

TEST(VisitProbe, CountsEveryHopAndResets) {
  // K(2x2): every token crosses one depth-1 gate then one depth-2 gate.
  const Network net = make_k_network({2, 2});
  ConcurrentNetwork cn(net);
  cn.enable_visit_probe();
  ASSERT_TRUE(cn.visit_probe_enabled());
  for (int i = 0; i < 12; ++i) cn.traverse(static_cast<Wire>(i % 4));
  const std::vector<std::uint64_t> visits = cn.gate_visits();
  ASSERT_EQ(visits.size(), net.gate_count());
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), std::uint64_t{0}),
            12u * net.depth());
  cn.reset();
  const std::vector<std::uint64_t> after = cn.gate_visits();
  EXPECT_EQ(std::accumulate(after.begin(), after.end(), std::uint64_t{0}), 0u);
}

TEST(VisitProbe, MeasuredTrafficMatchesContentionModel) {
  const Network net = make_k_network({4, 4});
  ConcurrentNetwork cn(net);
  cn.enable_visit_probe();
  const ConcurrentRunResult run = run_concurrent(cn, 2, 20000, /*seed=*/7);
  const std::vector<std::uint64_t> visits = cn.gate_visits();

  // Mean measured hops per token == the model's mean path length.
  const auto total_hops =
      std::accumulate(visits.begin(), visits.end(), std::uint64_t{0});
  const ContentionEstimate est = estimate_contention(net);
  EXPECT_NEAR(static_cast<double>(total_hops) /
                  static_cast<double>(run.tokens),
              est.hops_per_token, 1e-9);

  // Hottest-gate traffic within the documented 10% tolerance
  // (docs/observability.md; bench_obs_overhead gates the same bound).
  const ContentionComparison cmp =
      compare_contention(net, visits, run.tokens);
  EXPECT_EQ(cmp.tokens, run.tokens);
  EXPECT_GT(cmp.predicted_hottest, 0.0);
  EXPECT_LE(cmp.hottest_relative_error(), 0.10)
      << "predicted " << cmp.predicted_hottest << " measured "
      << cmp.measured_hottest;
  EXPECT_LE(cmp.mean_abs_error, 0.05);
}

TEST(VisitProbe, CompareContentionWithoutProbeDataTreatsGatesAsUnvisited) {
  // A probe that was never enabled yields an empty visit vector; the
  // comparison must stay in bounds and report zero measured traffic.
  const Network net = make_k_network({4, 4});
  const std::vector<std::uint64_t> no_visits;
  const ContentionComparison cmp = compare_contention(net, no_visits, 100);
  EXPECT_GT(cmp.predicted_hottest, 0.0);
  EXPECT_EQ(cmp.measured_hottest, 0.0);
  EXPECT_EQ(cmp.tokens, 100u);
}

}  // namespace
}  // namespace scn
