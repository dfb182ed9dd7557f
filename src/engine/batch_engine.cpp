#include "engine/batch_engine.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "engine/backend.h"
#include "engine/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/runtime.h"

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

// Runs the full plan as a comparator network over lanes [block_begin,
// block_end) (one cache block). Every gate — width-2 directly, wider ones
// via their compile-time compare-exchange expansion — is a branchless
// min/max over two contiguous row segments, so the inner loops
// auto-vectorize across the lane dimension with no gather or scratch.
void comparator_layer(const ExecutionPlan& plan,
                      const ExecutionPlan::Layer& layer, Batch<Count>& batch,
                      std::size_t block_begin, std::size_t block_end) {
  const auto& pairs = plan.pair_wires();
  const auto& ces = plan.ce_wires();
  for (std::uint32_t k = layer.pair_begin; k < layer.pair_end; ++k) {
    Count* hi = batch.row(static_cast<std::size_t>(pairs[2 * k])).data();
    Count* lo = batch.row(static_cast<std::size_t>(pairs[2 * k + 1])).data();
    for (std::size_t j = block_begin; j < block_end; ++j) {
      engine::pair_sort_kernel(hi[j], lo[j]);
    }
  }
  for (std::uint32_t k = layer.ce_begin; k < layer.ce_end; ++k) {
    Count* hi = batch.row(static_cast<std::size_t>(ces[2 * k])).data();
    Count* lo = batch.row(static_cast<std::size_t>(ces[2 * k + 1])).data();
    for (std::size_t j = block_begin; j < block_end; ++j) {
      engine::pair_sort_kernel(hi[j], lo[j]);
    }
  }
}

void comparator_block(const ExecutionPlan& plan, Batch<Count>& batch,
                      std::size_t block_begin, std::size_t block_end) {
  for (const ExecutionPlan::Layer& layer : plan.layers()) {
    comparator_layer(plan, layer, batch, block_begin, block_end);
  }
}

// Count-propagation twin of comparator_block. Width-2 gates use the
// branchless pair kernel; a wide balancer is irreducible (a width-p
// balancer is not a network of 2-balancers), so it runs as
// sum-then-redistribute — both phases row-wise over the lane dimension,
// vectorizable, with one totals row as scratch.
void count_layer(const ExecutionPlan& plan, const ExecutionPlan::Layer& layer,
                 Batch<Count>& batch, std::size_t block_begin,
                 std::size_t block_end, std::vector<Count>& totals) {
  const auto& pairs = plan.pair_wires();
  const auto& wides = plan.wide_gates();
  const auto& wide_wires = plan.wide_wires();
  const std::size_t n = block_end - block_begin;
  for (std::uint32_t k = layer.pair_begin; k < layer.pair_end; ++k) {
    Count* hi = batch.row(static_cast<std::size_t>(pairs[2 * k])).data();
    Count* lo = batch.row(static_cast<std::size_t>(pairs[2 * k + 1])).data();
    for (std::size_t j = block_begin; j < block_end; ++j) {
      engine::pair_count_kernel(hi[j], lo[j]);
    }
  }
  for (std::uint32_t g = layer.wide_begin; g < layer.wide_end; ++g) {
    const ExecutionPlan::WideGate wg = wides[g];
    const Wire* ws = wide_wires.data() + wg.first;
    const auto p = static_cast<Count>(wg.width);
    std::fill(totals.begin(), totals.begin() + static_cast<std::ptrdiff_t>(n),
              Count{0});
    for (std::uint32_t i = 0; i < wg.width; ++i) {
      const Count* row =
          batch.row(static_cast<std::size_t>(ws[i])).data() + block_begin;
      for (std::size_t j = 0; j < n; ++j) totals[j] += row[j];
    }
    for (std::uint32_t i = 0; i < wg.width; ++i) {
      Count* row =
          batch.row(static_cast<std::size_t>(ws[i])).data() + block_begin;
      const Count bias = p - 1 - static_cast<Count>(i);
      // counts are non-negative, so totals[j] + bias >= 0: plain division
      // implements ceil((total - i) / p).
      for (std::size_t j = 0; j < n; ++j) row[j] = (totals[j] + bias) / p;
    }
  }
}

void count_block(const ExecutionPlan& plan, Batch<Count>& batch,
                 std::size_t block_begin, std::size_t block_end,
                 std::vector<Count>& totals) {
  for (const ExecutionPlan::Layer& layer : plan.layers()) {
    count_layer(plan, layer, batch, block_begin, block_end, totals);
  }
}

void comparator_lanes(const ExecutionPlan& plan, Batch<Count>& batch,
                      std::size_t lane_begin, std::size_t lane_end) {
  for (std::size_t b = lane_begin; b < lane_end; b += kExecBlock) {
    comparator_block(plan, batch, b, std::min(b + kExecBlock, lane_end));
  }
}

void count_lanes(const ExecutionPlan& plan, Batch<Count>& batch,
                 std::size_t lane_begin, std::size_t lane_end) {
  std::vector<Count> totals(
      plan.wide_gates().empty()
          ? 0
          : std::min<std::size_t>(kExecBlock, lane_end - lane_begin));
  for (std::size_t b = lane_begin; b < lane_end; b += kExecBlock) {
    count_block(plan, batch, b, std::min(b + kExecBlock, lane_end), totals);
  }
}

using LaneRunner = void (*)(const ExecutionPlan&, Batch<Count>&, std::size_t,
                            std::size_t);

// Traced twins of the lane runners: layer-major over the whole lane range
// so each layer is one span. Layers run over identical lane sets in the
// same order as the blocked path, and every kernel is lane-pointwise
// within a layer, so results are bit-identical — only the cache blocking
// (a pure performance device) is given up while a trace is recording.
std::string layer_span_args(const ExecutionPlan::Layer& layer,
                            std::size_t lanes) {
  const auto pairs = layer.pair_end - layer.pair_begin;
  const auto ces = layer.ce_end - layer.ce_begin;
  const auto wides = layer.wide_end - layer.wide_begin;
  return "{\"pairs\":" + std::to_string(pairs) + ",\"ce\":" +
         std::to_string(ces) + ",\"wide\":" + std::to_string(wides) +
         ",\"lanes\":" + std::to_string(lanes) + "}";
}

void comparator_lanes_traced(const ExecutionPlan& plan, Batch<Count>& batch,
                             std::size_t lane_begin, std::size_t lane_end) {
  std::size_t li = 0;
  for (const ExecutionPlan::Layer& layer : plan.layers()) {
    obs::ScopedSpan span("engine.layer", "layer " + std::to_string(li++),
                         layer_span_args(layer, lane_end - lane_begin));
    comparator_layer(plan, layer, batch, lane_begin, lane_end);
  }
}

void count_lanes_traced(const ExecutionPlan& plan, Batch<Count>& batch,
                        std::size_t lane_begin, std::size_t lane_end) {
  std::vector<Count> totals(
      plan.wide_gates().empty() ? 0 : lane_end - lane_begin);
  std::size_t li = 0;
  for (const ExecutionPlan::Layer& layer : plan.layers()) {
    obs::ScopedSpan span("engine.layer", "layer " + std::to_string(li++),
                         layer_span_args(layer, lane_end - lane_begin));
    count_layer(plan, layer, batch, lane_begin, lane_end, totals);
  }
}

// Picks the traced runner only when observability is compiled in AND a
// trace is actively recording; otherwise the cache-blocked fast path.
LaneRunner comparator_runner() {
  if constexpr (obs::compiled_in()) {
    if (obs::Tracer::shared().active()) return &comparator_lanes_traced;
  }
  return &comparator_lanes;
}

LaneRunner count_runner() {
  if constexpr (obs::compiled_in()) {
    if (obs::Tracer::shared().active()) return &count_lanes_traced;
  }
  return &count_lanes;
}

// Packs input vectors [lane_begin, lane_end) into the batch, lane blocks
// keeping each input vector hot while its elements scatter across rows.
void pack_lanes(Batch<Count>& batch,
                std::span<const std::vector<Count>> inputs,
                std::size_t lane_begin, std::size_t lane_end) {
  const std::size_t width = batch.width();
  for (std::size_t b = lane_begin; b < lane_end; b += kLaneBlock) {
    const std::size_t e = std::min(b + kLaneBlock, lane_end);
    for (std::size_t w = 0; w < width; ++w) {
      for (std::size_t j = b; j < e; ++j) batch.at(w, j) = inputs[j][w];
    }
  }
}

// Gathers lanes [lane_begin, lane_end) into per-lane vectors in logical
// output order, same blocking as pack_lanes.
void unpack_lanes(const Batch<Count>& batch, std::span<const Wire> order,
                  std::span<std::vector<Count>> outs, std::size_t lane_begin,
                  std::size_t lane_end) {
  for (std::size_t b = lane_begin; b < lane_end; b += kLaneBlock) {
    const std::size_t e = std::min(b + kLaneBlock, lane_end);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto w = static_cast<std::size_t>(order[i]);
      for (std::size_t j = b; j < e; ++j) outs[j][i] = batch.at(w, j);
    }
  }
}

void run_sharded(const ExecutionPlan& plan, Batch<Count>& batch,
                 ThreadPool& pool, std::size_t min_lanes_per_task,
                 LaneRunner runner) {
  assert(batch.width() == plan.width());
  pool.parallel_for(batch.batch_size(), min_lanes_per_task,
                    [&](std::size_t begin, std::size_t end) {
                      runner(plan, batch, begin, end);
                    });
}

// Pack -> run -> unpack, each shard handling its own lane range end to end
// (the transposes parallelize with the kernels; lanes are independent).
std::vector<std::vector<Count>> run_packed(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    ThreadPool* pool, LaneRunner runner) {
  Batch<Count> batch(plan.width(), inputs.size());
  std::vector<std::vector<Count>> outs(inputs.size(),
                                       std::vector<Count>(plan.width()));
  auto shard = [&](std::size_t begin, std::size_t end) {
    pack_lanes(batch, inputs, begin, end);
    runner(plan, batch, begin, end);
    unpack_lanes(batch, plan.output_order(), outs, begin, end);
  };
  if (pool != nullptr) {
    pool->parallel_for(inputs.size(), 64, shard);
  } else {
    shard(0, inputs.size());
  }
  return outs;
}

// Scalar traversal: same layer walk on a single per-wire vector. Wide
// comparator gates use the insertion-sort kernel directly (cheaper than
// the CE expansion when there is no lane dimension to vectorize over).
template <typename PairKernel, typename WideKernel>
void scalar_layer(const ExecutionPlan& plan, const ExecutionPlan::Layer& layer,
                  std::span<Count> values, std::vector<Count>& scratch,
                  PairKernel pair_kernel, WideKernel wide_kernel) {
  const auto& pairs = plan.pair_wires();
  const auto& wides = plan.wide_gates();
  const auto& wide_wires = plan.wide_wires();
  for (std::uint32_t k = layer.pair_begin; k < layer.pair_end; ++k) {
    pair_kernel(values[static_cast<std::size_t>(pairs[2 * k])],
                values[static_cast<std::size_t>(pairs[2 * k + 1])]);
  }
  for (std::uint32_t g = layer.wide_begin; g < layer.wide_end; ++g) {
    const ExecutionPlan::WideGate wg = wides[g];
    const Wire* ws = wide_wires.data() + wg.first;
    const std::span<Count> vals(scratch.data(), wg.width);
    for (std::uint32_t i = 0; i < wg.width; ++i) {
      vals[i] = values[static_cast<std::size_t>(ws[i])];
    }
    wide_kernel(vals);
    for (std::uint32_t i = 0; i < wg.width; ++i) {
      values[static_cast<std::size_t>(ws[i])] = vals[i];
    }
  }
}

template <typename PairKernel, typename WideKernel>
void run_scalar(const ExecutionPlan& plan, std::span<Count> values,
                PairKernel pair_kernel, WideKernel wide_kernel) {
  assert(values.size() == plan.width());
  std::vector<Count> scratch(plan.max_wide_width());
  if constexpr (obs::compiled_in()) {
    if (obs::Tracer::shared().active()) {
      std::size_t li = 0;
      for (const ExecutionPlan::Layer& layer : plan.layers()) {
        obs::ScopedSpan span("engine.layer", "layer " + std::to_string(li++),
                             layer_span_args(layer, 1));
        scalar_layer(plan, layer, values, scratch, pair_kernel, wide_kernel);
      }
      return;
    }
  }
  for (const ExecutionPlan::Layer& layer : plan.layers()) {
    scalar_layer(plan, layer, values, scratch, pair_kernel, wide_kernel);
  }
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
  SCNET_COUNTER_ADD("engine.run.scalar", 1);
  SCNET_TRACE_SPAN("engine", "run_plan");
  run_scalar(plan, values,
             [](Count& hi, Count& lo) { engine::pair_sort_kernel(hi, lo); },
             [](std::span<Count> vals) { engine::small_sort_descending(vals); });
}

std::vector<Count> plan_comparator_output(const ExecutionPlan& plan,
                                          std::span<const Count> input) {
  std::vector<Count> values(input.begin(), input.end());
  run_plan(plan, values);
  return in_output_order(plan, values);
}

void run_plan_counts(const ExecutionPlan& plan, std::span<Count> counts) {
  SCNET_COUNTER_ADD("engine.run.scalar", 1);
  SCNET_TRACE_SPAN("engine", "run_plan_counts");
  run_scalar(plan, counts,
             [](Count& hi, Count& lo) { engine::pair_count_kernel(hi, lo); },
             [](std::span<Count> vals) { engine::wide_count_kernel(vals); });
}

std::vector<Count> plan_output_counts(const ExecutionPlan& plan,
                                      std::span<const Count> input) {
  std::vector<Count> counts(input.begin(), input.end());
  run_plan_counts(plan, counts);
  return in_output_order(plan, counts);
}

void run_plan_batch(const ExecutionPlan& plan, engine::Batch<Count>& batch) {
  assert(batch.width() == plan.width());
  SCNET_COUNTER_ADD("engine.run.batch", 1);
  SCNET_HISTOGRAM_RECORD("engine.batch.lanes", batch.batch_size());
  SCNET_TRACE_SPAN("engine", "run_plan_batch");
  comparator_runner()(plan, batch, 0, batch.batch_size());
}

void run_plan_counts_batch(const ExecutionPlan& plan,
                           engine::Batch<Count>& batch) {
  assert(batch.width() == plan.width());
  SCNET_COUNTER_ADD("engine.run.batch", 1);
  SCNET_HISTOGRAM_RECORD("engine.batch.lanes", batch.batch_size());
  SCNET_TRACE_SPAN("engine", "run_plan_counts_batch");
  count_runner()(plan, batch, 0, batch.batch_size());
}

void run_plan_batch(const ExecutionPlan& plan, engine::Batch<Count>& batch,
                    ThreadPool& pool, std::size_t min_lanes_per_task) {
  SCNET_COUNTER_ADD("engine.run.batch", 1);
  SCNET_HISTOGRAM_RECORD("engine.batch.lanes", batch.batch_size());
  SCNET_TRACE_SPAN("engine", "run_plan_batch(pool)");
  run_sharded(plan, batch, pool, min_lanes_per_task, comparator_runner());
}

void run_plan_counts_batch(const ExecutionPlan& plan,
                           engine::Batch<Count>& batch, ThreadPool& pool,
                           std::size_t min_lanes_per_task) {
  SCNET_COUNTER_ADD("engine.run.batch", 1);
  SCNET_HISTOGRAM_RECORD("engine.batch.lanes", batch.batch_size());
  SCNET_TRACE_SPAN("engine", "run_plan_counts_batch(pool)");
  run_sharded(plan, batch, pool, min_lanes_per_task, count_runner());
}

std::vector<std::vector<Count>> plan_sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    ThreadPool* pool) {
  SCNET_COUNTER_ADD("engine.run.batch", 1);
  SCNET_HISTOGRAM_RECORD("engine.batch.lanes", inputs.size());
  SCNET_TRACE_SPAN("engine", "plan_sort_batch");
  return run_packed(plan, inputs, pool, comparator_runner());
}

std::vector<std::vector<Count>> plan_count_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    ThreadPool* pool) {
  SCNET_COUNTER_ADD("engine.run.batch", 1);
  SCNET_HISTOGRAM_RECORD("engine.batch.lanes", inputs.size());
  SCNET_TRACE_SPAN("engine", "plan_count_batch");
  return run_packed(plan, inputs, pool, count_runner());
}

// The runtime-scoped wrappers go through the backend dispatcher: the
// runtime's configured request (SCNET_BACKEND / Options::backend, default
// auto) picks the tier instead of hardwiring the pool-sharded one.
std::vector<std::vector<Count>> plan_sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt) {
  return engine::sort_batch(plan, inputs, rt, rt.backend());
}

std::vector<std::vector<Count>> plan_count_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt) {
  return engine::count_batch(plan, inputs, rt, rt.backend());
}

}  // namespace scn
