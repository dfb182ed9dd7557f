#include "engine/batch_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/pass.h"

namespace scn {
namespace {

using engine::Batch;

// Lanes are processed in blocks so per-lane transposed accesses (pack,
// unpack) stay within a few cache lines per row.
constexpr std::size_t kLaneBlock = 32;

// Execution is additionally cache-blocked over the lane dimension: a plan
// revisits each row once per touching gate, so running the WHOLE plan over
// a lane block whose row segments fit in L1/L2 turns those revisits into
// cache hits instead of streaming full rows from memory per gate.
// 256 lanes x 8 bytes = 2 KB per row segment.
constexpr std::size_t kExecBlock = 256;

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
// A Batch is stride = batch_size; a single vector is stride 1, lane 0.
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
// loops auto-vectorize with no gather or scratch. A wide balancer is
// irreducible (a width-p balancer is not a network of 2-balancers), so it
// runs as sum-then-redistribute, both phases row-wise over the lanes.
template <Semantics S>
[[gnu::always_inline]] inline void run_layer(
    const ExecutionPlan& plan, const ExecutionPlan::Layer& layer, Rows rows,
    std::size_t b, std::size_t e) {
  const auto& pairs = plan.pair_wires();
  for (std::uint32_t k = layer.pair_begin; k < layer.pair_end; ++k) {
    Count* hi = rows.row(pairs[2 * k]);
    Count* lo = rows.row(pairs[2 * k + 1]);
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
      Count* hi = rows.row(ces[2 * k]);
      Count* lo = rows.row(ces[2 * k + 1]);
      for (std::size_t j = b; j < e; ++j) {
        engine::pair_sort_kernel(hi[j], lo[j]);
      }
    }
  } else {
    const auto& wides = plan.wide_gates();
    const std::size_t n = e - b;
    Count totals[kExecBlock];
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

std::string layer_span_args(const ExecutionPlan::Layer& layer,
                            std::size_t lanes) {
  return "{\"pairs\":" + std::to_string(layer.pair_end - layer.pair_begin) +
         ",\"ce\":" + std::to_string(layer.ce_end - layer.ce_begin) +
         ",\"wide\":" + std::to_string(layer.wide_end - layer.wide_begin) +
         ",\"lanes\":" + std::to_string(lanes) + "}";
}

// The one layer walk: the whole plan over each kExecBlock-lane block of
// [lane_begin, lane_end). It is inlined into every entry point so that at
// a single vector's constant one-lane bounds the lane loops fold away and
// each gate compiles to a plain scalar compare-exchange. While the shared
// tracer records, each layer's time is summed over the blocks and recorded
// as one `engine.layer` event per layer, the events laid end to end from
// the walk's start — the per-layer split of the schedule that actually ran.
template <Semantics S>
[[gnu::always_inline]] inline void run_lanes(const ExecutionPlan& plan,
                                             Rows rows, std::size_t lane_begin,
                                             std::size_t lane_end) {
  using Clock = std::chrono::steady_clock;
  const auto& layers = plan.layers();
  bool traced = false;
  if constexpr (obs::compiled_in()) traced = obs::Tracer::shared().active();
  std::vector<std::uint64_t> layer_ns(traced ? layers.size() : 0);
  const std::uint64_t walk_start =
      traced ? obs::Tracer::shared().now_ns() : 0;
  for (std::size_t b = lane_begin; b < lane_end; b += kExecBlock) {
    const std::size_t e = std::min(b + kExecBlock, lane_end);
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const Clock::time_point t0 = traced ? Clock::now() : Clock::time_point{};
      run_layer<S>(plan, layers[i], rows, b, e);
      if (traced) {
        layer_ns[i] += static_cast<std::uint64_t>(
            std::chrono::nanoseconds(Clock::now() - t0).count());
      }
    }
  }
  std::uint64_t at = walk_start;
  for (std::size_t i = 0; i < layer_ns.size(); ++i) {
    obs::Tracer::shared().record_complete(
        "layer " + std::to_string(i), "engine.layer", at, layer_ns[i],
        layer_span_args(layers[i], lane_end - lane_begin));
    at += layer_ns[i];
  }
}

// Runs body(begin, end) over [0, lanes): inline without a pool, otherwise
// striped into contiguous lane ranges across the pool. Lanes are
// independent, so results cannot depend on where the stripes fall.
template <typename Body>
void for_lanes(ThreadPool* pool, std::size_t lanes, std::size_t grain,
               const Body& body) {
  if (pool == nullptr) {
    body(std::size_t{0}, lanes);
  } else {
    pool->parallel_for(lanes, grain, body);
  }
}

template <Semantics S>
void run_batch(const ExecutionPlan& plan, Batch<Count>& batch,
               ThreadPool* pool, std::size_t grain) {
  check_length(S == Semantics::kComparator ? "run_plan_batch"
                                           : "run_plan_counts_batch",
               plan, batch.width());
  const Rows rows{batch.data(), batch.batch_size()};
  for_lanes(pool, batch.batch_size(), grain,
            [&](std::size_t begin, std::size_t end) {
              run_lanes<S>(plan, rows, begin, end);
            });
}

// Pack -> walk -> unpack, each stripe handling its own lane range end to
// end (the transposes parallelize with the kernels). Packing blocks lanes
// so each input vector stays hot while its elements scatter across rows.
template <Semantics S>
std::vector<std::vector<Count>> run_packed(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    ThreadPool* pool) {
  for (const std::vector<Count>& in : inputs) {
    check_length(S == Semantics::kComparator ? "plan_sort_batch"
                                             : "plan_count_batch",
                 plan, in.size());
  }
  Batch<Count> batch(plan.width(), inputs.size());
  std::vector<std::vector<Count>> outs(inputs.size(),
                                       std::vector<Count>(plan.width()));
  const std::span<const Wire> order = plan.output_order();
  for_lanes(pool, inputs.size(), 64, [&](std::size_t begin, std::size_t end) {
    for (std::size_t b = begin; b < end; b += kLaneBlock) {
      const std::size_t e = std::min(b + kLaneBlock, end);
      for (std::size_t w = 0; w < plan.width(); ++w) {
        for (std::size_t j = b; j < e; ++j) batch.at(w, j) = inputs[j][w];
      }
    }
    run_lanes<S>(plan, Rows{batch.data(), batch.batch_size()}, begin, end);
    for (std::size_t b = begin; b < end; b += kLaneBlock) {
      const std::size_t e = std::min(b + kLaneBlock, end);
      for (std::size_t i = 0; i < order.size(); ++i) {
        const auto w = static_cast<std::size_t>(order[i]);
        for (std::size_t j = b; j < e; ++j) outs[j][i] = batch.at(w, j);
      }
    }
  });
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
  run_lanes<Semantics::kComparator>(plan, Rows{values.data(), 1}, 0, 1);
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
  run_lanes<Semantics::kBalancer>(plan, Rows{counts.data(), 1}, 0, 1);
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
