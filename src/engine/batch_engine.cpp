#include "engine/batch_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scn {
namespace {

using engine::Batch;

// A plan revisits each row once per touching gate, so the walk runs the
// WHOLE plan over one lane block before the next, and the revisits hit
// cache. On a Batch's long rows a block is 256 lanes (2 KB row segments;
// 64-lane blocks at a 4096-lane stride measured 1.9x slower). A packed
// block is 64 lanes at stride 64: 16 KB at width 32, so its pack, every
// layer and its unpack all run in L1.
constexpr std::size_t kBatchBlock = 256;
constexpr std::size_t kPackBlock = 64;

// A vector shorter or longer than the plan would be walked past its end, so
// every entry checks lengths in all builds: once per call for one vector,
// once per vector for a batch.
void check_length(const char* entry, const ExecutionPlan& plan,
                  std::size_t got) {
  if (got == plan.width()) return;
  throw std::invalid_argument(std::string(entry) + ": input of length " +
                              std::to_string(got) + " for a plan of width " +
                              std::to_string(plan.width()));
}

// Lane-major rows: lane j of physical wire w lives at base[w * stride + j].
// A Batch is stride = batch_size; a single vector is stride 1, lane 0; a
// packed block is stride kPackBlock.
struct Rows {
  Count* base;
  std::size_t stride;

  [[nodiscard]] Count* row(Wire w) const {
    return base + static_cast<std::size_t>(w) * stride;
  }
};

// One layer over lanes [b, e) of one cache block. Every comparator gate —
// width-2 directly, wider ones via their compile-time compare-exchange
// expansion — is a branchless min/max over two row segments, so the lane
// loops auto-vectorize with no gather or scratch. A gate's two wires are
// distinct, so its rows never overlap (__restrict drops the alias check).
// A wide balancer is irreducible (a width-p balancer is not a network of
// 2-balancers), so it runs as sum-then-redistribute, both phases row-wise
// over the lanes.
template <Semantics S, std::size_t kBlock>
[[gnu::always_inline]] inline void run_layer(
    const ExecutionPlan& plan, const ExecutionPlan::Layer& layer, Rows rows,
    std::size_t b, std::size_t e) {
  const auto& pairs = plan.pair_wires();
  for (std::uint32_t k = layer.pair_begin; k < layer.pair_end; ++k) {
    Count* __restrict hi = rows.row(pairs[2 * k]);
    Count* __restrict lo = rows.row(pairs[2 * k + 1]);
    for (std::size_t j = b; j < e; ++j) {
      if constexpr (S == Semantics::kComparator) {
        engine::pair_sort_kernel(hi[j], lo[j]);
      } else {
        engine::pair_count_kernel(hi[j], lo[j]);
      }
    }
  }
  if constexpr (S == Semantics::kComparator) {
    const auto& ces = plan.ce_wires();
    for (std::uint32_t k = layer.ce_begin; k < layer.ce_end; ++k) {
      Count* __restrict hi = rows.row(ces[2 * k]);
      Count* __restrict lo = rows.row(ces[2 * k + 1]);
      for (std::size_t j = b; j < e; ++j) {
        engine::pair_sort_kernel(hi[j], lo[j]);
      }
    }
  } else {
    const auto& wides = plan.wide_gates();
    const std::size_t n = e - b;
    Count totals[kBlock];
    for (std::uint32_t g = layer.wide_begin; g < layer.wide_end; ++g) {
      const ExecutionPlan::WideGate wg = wides[g];
      const Wire* ws = plan.wide_wires().data() + wg.first;
      const auto p = static_cast<Count>(wg.width);
      std::fill(totals, totals + n, Count{0});
      for (std::uint32_t i = 0; i < wg.width; ++i) {
        const Count* row = rows.row(ws[i]) + b;
        for (std::size_t j = 0; j < n; ++j) totals[j] += row[j];
      }
      for (std::uint32_t i = 0; i < wg.width; ++i) {
        Count* row = rows.row(ws[i]) + b;
        const Count bias = p - 1 - static_cast<Count>(i);
        // counts are non-negative, so totals[j] + bias >= 0: plain division
        // implements ceil((total - i) / p).
        for (std::size_t j = 0; j < n; ++j) row[j] = (totals[j] + bias) / p;
      }
    }
  }
}

// One thread's per-layer walk time while the shared tracer records, summed
// over every block it runs and recorded as one `engine.layer` event per
// layer, laid end to end from its start: one event set per thread however
// many blocks it took.
class LayerTimes {
 public:
  explicit LayerTimes(const ExecutionPlan& plan) {
    if constexpr (obs::compiled_in()) {
      if (obs::Tracer::shared().active()) {
        ns_.assign(plan.layers().size(), 0);
        start_ = obs::Tracer::shared().now_ns();
      }
    }
  }

  [[nodiscard]] bool on() const { return !ns_.empty(); }
  void add(std::size_t layer, std::uint64_t ns) { ns_[layer] += ns; }

  void record(const ExecutionPlan& plan, std::size_t lanes) const {
    std::uint64_t at = start_;
    for (std::size_t i = 0; i < ns_.size(); ++i) {
      const ExecutionPlan::Layer& layer = plan.layers()[i];
      obs::Tracer::shared().record_complete(
          "layer " + std::to_string(i), "engine.layer", at, ns_[i],
          "{\"pairs\":" + std::to_string(layer.pair_end - layer.pair_begin) +
              ",\"ce\":" + std::to_string(layer.ce_end - layer.ce_begin) +
              ",\"wide\":" +
              std::to_string(layer.wide_end - layer.wide_begin) +
              ",\"lanes\":" + std::to_string(lanes) + "}");
      at += ns_[i];
    }
  }

 private:
  std::vector<std::uint64_t> ns_;  // empty unless a trace records
  std::uint64_t start_ = 0;
};

// The one layer walk: the whole plan over each kBlock-lane block of
// [lane_begin, lane_end), each layer's time added to `times` while a trace
// records. It is inlined into every entry point, so lane bounds that are
// constants there fold into constant-trip lane loops: at a single vector's
// one lane each gate compiles to a plain scalar compare-exchange, and a
// full packed block runs kPackBlock-lane loops with no remainder.
template <Semantics S, std::size_t kBlock>
[[gnu::always_inline]] inline void run_lanes(const ExecutionPlan& plan,
                                             Rows rows, std::size_t lane_begin,
                                             std::size_t lane_end,
                                             LayerTimes& times) {
  using Clock = std::chrono::steady_clock;
  const auto& layers = plan.layers();
  const bool traced = times.on();
  for (std::size_t b = lane_begin; b < lane_end; b += kBlock) {
    const std::size_t e = std::min(b + kBlock, lane_end);
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const Clock::time_point t0 = traced ? Clock::now() : Clock::time_point{};
      run_layer<S, kBlock>(plan, layers[i], rows, b, e);
      if (traced) {
        times.add(i, static_cast<std::uint64_t>(
                         std::chrono::nanoseconds(Clock::now() - t0).count()));
      }
    }
  }
}

// One lane range on one thread, traced as one event set.
template <Semantics S, std::size_t kBlock>
[[gnu::always_inline]] inline void run_range(const ExecutionPlan& plan,
                                             Rows rows, std::size_t lane_begin,
                                             std::size_t lane_end) {
  LayerTimes times(plan);
  run_lanes<S, kBlock>(plan, rows, lane_begin, lane_end, times);
  times.record(plan, lane_end - lane_begin);
}

template <Semantics S>
void run_batch(const ExecutionPlan& plan, Batch<Count>& batch,
               ThreadPool* pool, std::size_t grain) {
  check_length(S == Semantics::kComparator ? "run_plan_batch"
                                           : "run_plan_counts_batch",
               plan, batch.width());
  const Rows rows{batch.data(), batch.batch_size()};
  const auto stripe = [&](std::size_t begin, std::size_t end) {
    run_range<S, kBatchBlock>(plan, rows, begin, end);
  };
  // Lanes are independent, so results cannot depend on where the stripes
  // fall.
  if (pool == nullptr) {
    stripe(0, batch.batch_size());
  } else {
    pool->parallel_for(batch.batch_size(), grain, stripe);
  }
}

// The calling thread's block buffer, starting on a cache line so that no
// vector load of a kPackBlock-lane row straddles two lines. It only grows,
// so after a thread's first block at a width the packed entries allocate
// nothing but their outputs.
Count* block_buffer(std::size_t cells) {
  constexpr std::size_t kLine = 64;
  thread_local std::vector<Count> buffer;
  const std::size_t slack = kLine / sizeof(Count);
  if (buffer.size() < cells + slack) buffer.resize(cells + slack);
  void* base = buffer.data();
  std::size_t bytes = buffer.size() * sizeof(Count);
  return static_cast<Count*>(
      std::align(kLine, cells * sizeof(Count), base, bytes));
}

// Pack -> walk -> unpack per block on the thread's buffer. Threads take
// blocks from one counter, so a slow thread delays the call by one block,
// not a stripe. The outputs are allocated on the caller (allocated on the
// workers, each malloc arena would keep its own freed chunks: peak RSS rose
// by a third), in block order while the other threads walk: the caller
// publishes how many lanes have their storage, and a thread unpacks a block
// once that frontier covers it. The caller only reserves; the unpacking
// thread sizes each output, so no line is zeroed on one CPU and written on
// another.
template <Semantics S>
std::vector<std::vector<Count>> run_packed(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    ThreadPool* pool) {
  for (const std::vector<Count>& in : inputs) {
    check_length(S == Semantics::kComparator ? "plan_sort_batch"
                                             : "plan_count_batch",
                 plan, in.size());
  }
  const std::size_t width = plan.width();
  const std::size_t lanes = inputs.size();
  std::vector<std::vector<Count>> outs(lanes);
  const std::span<const Wire> order = plan.output_order();
  const std::size_t blocks = (lanes + kPackBlock - 1) / kPackBlock;
  std::atomic<std::size_t> allocated{0};
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> threads{0};  // threads that ran a block
  const auto worker = [&](std::size_t chunk, std::size_t) {
    if (chunk == 0) {  // the caller's chunk
      for (std::size_t b = 0; b < lanes; b += kPackBlock) {
        const std::size_t e = std::min(b + kPackBlock, lanes);
        for (std::size_t j = b; j < e; ++j) outs[j].reserve(width);
        allocated.store(e, std::memory_order_release);
      }
    }
    const Rows rows{block_buffer(width * kPackBlock), kPackBlock};
    LayerTimes times(plan);
    std::size_t ran = 0;
    for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
         k < blocks; k = next.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t b = k * kPackBlock;
      const std::size_t n = std::min(kPackBlock, lanes - b);
      for (std::size_t j = 0; j < n; ++j) {
        const Count* in = inputs[b + j].data();
        for (std::size_t w = 0; w < width; ++w) {
          rows.base[w * kPackBlock + j] = in[w];
        }
      }
      if (n == kPackBlock) {
        run_lanes<S, kPackBlock>(plan, rows, 0, kPackBlock, times);
      } else {
        run_lanes<S, kPackBlock>(plan, rows, 0, n, times);
      }
      spin_until([&] {
        return allocated.load(std::memory_order_acquire) >= b + n;
      });
      for (std::size_t j = 0; j < n; ++j) {
        outs[b + j].resize(width);  // within capacity: no allocation
        Count* out = outs[b + j].data();
        for (std::size_t i = 0; i < width; ++i) {
          out[i] = rows.row(order[i])[j];
        }
      }
      ran += n;
    }
    if (ran > 0) threads.fetch_add(1, std::memory_order_relaxed);
    times.record(plan, ran);
  };
  if (pool == nullptr) {
    worker(0, 1);
  } else {
    pool->parallel_for(std::min(pool->size(), blocks), 1, worker);
    SCNET_HISTOGRAM_RECORD("engine.batch.threads", threads.load());
  }
  return outs;
}

std::vector<Count> in_output_order(const ExecutionPlan& plan,
                                   std::span<const Count> phys) {
  std::vector<Count> out;
  out.reserve(plan.width());
  for (const Wire w : plan.output_order()) {
    out.push_back(phys[static_cast<std::size_t>(w)]);
  }
  return out;
}

}  // namespace

void run_plan(const ExecutionPlan& plan, std::span<Count> values) {
  check_length("run_plan", plan, values.size());
  SCNET_COUNTER_ADD("engine.run.scalar", 1);
  SCNET_TRACE_SPAN("engine", "run_plan");
  run_range<Semantics::kComparator, 1>(plan, Rows{values.data(), 1}, 0, 1);
}

std::vector<Count> plan_comparator_output(const ExecutionPlan& plan,
                                          std::span<const Count> input) {
  std::vector<Count> values(input.begin(), input.end());
  run_plan(plan, values);
  return in_output_order(plan, values);
}

void run_plan_counts(const ExecutionPlan& plan, std::span<Count> counts) {
  check_length("run_plan_counts", plan, counts.size());
  SCNET_COUNTER_ADD("engine.run.scalar", 1);
  SCNET_TRACE_SPAN("engine", "run_plan_counts");
  run_range<Semantics::kBalancer, 1>(plan, Rows{counts.data(), 1}, 0, 1);
}

std::vector<Count> plan_output_counts(const ExecutionPlan& plan,
                                      std::span<const Count> input) {
  std::vector<Count> counts(input.begin(), input.end());
  run_plan_counts(plan, counts);
  return in_output_order(plan, counts);
}

void run_plan_batch(const ExecutionPlan& plan, engine::Batch<Count>& batch,
                    ThreadPool* pool, std::size_t min_lanes_per_task) {
  SCNET_COUNTER_ADD("engine.run.batch", 1);
  SCNET_HISTOGRAM_RECORD("engine.batch.lanes", batch.batch_size());
  SCNET_TRACE_SPAN("engine", "run_plan_batch");
  run_batch<Semantics::kComparator>(plan, batch, pool, min_lanes_per_task);
}

void run_plan_counts_batch(const ExecutionPlan& plan,
                           engine::Batch<Count>& batch, ThreadPool* pool,
                           std::size_t min_lanes_per_task) {
  SCNET_COUNTER_ADD("engine.run.batch", 1);
  SCNET_HISTOGRAM_RECORD("engine.batch.lanes", batch.batch_size());
  SCNET_TRACE_SPAN("engine", "run_plan_counts_batch");
  run_batch<Semantics::kBalancer>(plan, batch, pool, min_lanes_per_task);
}

std::vector<std::vector<Count>> plan_sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    ThreadPool* pool) {
  SCNET_COUNTER_ADD("engine.run.batch", 1);
  SCNET_HISTOGRAM_RECORD("engine.batch.lanes", inputs.size());
  SCNET_TRACE_SPAN("engine", "plan_sort_batch");
  return run_packed<Semantics::kComparator>(plan, inputs, pool);
}

std::vector<std::vector<Count>> plan_count_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    ThreadPool* pool) {
  SCNET_COUNTER_ADD("engine.run.batch", 1);
  SCNET_HISTOGRAM_RECORD("engine.batch.lanes", inputs.size());
  SCNET_TRACE_SPAN("engine", "plan_count_batch");
  return run_packed<Semantics::kBalancer>(plan, inputs, pool);
}

}  // namespace scn
