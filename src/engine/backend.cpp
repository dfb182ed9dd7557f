#include "engine/backend.h"

#include <stdexcept>
#include <string>

#include "engine/batch_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/runtime.h"

namespace scn::engine {
namespace {

void count_dispatch(EngineBackend resolved) {
  // One switch so every branch hands the macro a literal name (the macro
  // caches the registry lookup per call site).
  switch (resolved) {
    case EngineBackend::kScalar:
      SCNET_COUNTER_ADD("engine.backend.scalar.dispatches", 1);
      break;
    case EngineBackend::kBatch:
      SCNET_COUNTER_ADD("engine.backend.batch.dispatches", 1);
      break;
    case EngineBackend::kThreaded:
      SCNET_COUNTER_ADD("engine.backend.threaded.dispatches", 1);
      break;
    case EngineBackend::kAuto:
      break;  // unreachable: dispatch resolves before counting
  }
}

// Builds the span args only when a trace is actually recording — dispatch
// sits on per-vector paths (verification sweeps), where an unconditional
// allocation would show up. (Unreferenced when SCNET_OBS is off: the
// trace macro it feeds compiles to nothing.)
[[maybe_unused]] std::string dispatch_args(EngineBackend resolved,
                                           std::size_t lanes) {
  if constexpr (obs::compiled_in()) {
    if (obs::Tracer::shared().active()) {
      return std::string("{\"backend\":\"") + to_string(resolved) +
             "\",\"lanes\":" + std::to_string(lanes) + "}";
    }
  }
  return {};
}

// Without a pool for the batch backend; the runtime's for threaded. Only
// called for the two SoA backends.
ThreadPool* lane_pool(EngineBackend which, Runtime& rt) {
  return which == EngineBackend::kThreaded ? &rt.pool() : nullptr;
}

// The scalar backend's batch path: each vector walked alone, one lane at
// row stride 1 (metrics fire per vector, as engine.run.scalar).
template <typename RunOne>
std::vector<std::vector<Count>> each_vector(
    std::span<const std::vector<Count>> inputs, RunOne run_one) {
  std::vector<std::vector<Count>> outs;
  outs.reserve(inputs.size());
  for (const std::vector<Count>& in : inputs) outs.push_back(run_one(in));
  return outs;
}

}  // namespace

void Backend::run_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                        Runtime& rt) const {
  // Checked here, not only in the walks: the scalar path walks once per
  // lane, so a batch with no lanes would otherwise pass unchecked.
  if (batch.width() != plan.width()) {
    throw std::invalid_argument(
        "Backend::run_batch: batch of width " +
        std::to_string(batch.width()) + " for a plan of width " +
        std::to_string(plan.width()));
  }
  if (which_ != EngineBackend::kScalar) {
    run_plan_batch(plan, batch, lane_pool(which_, rt));
    return;
  }
  std::vector<Count> lane(batch.width());
  for (std::size_t j = 0; j < batch.batch_size(); ++j) {
    for (std::size_t w = 0; w < lane.size(); ++w) lane[w] = batch.at(w, j);
    run_plan(plan, lane);
    batch.set_lane(j, lane);
  }
}

std::vector<std::vector<Count>> Backend::sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt) const {
  if (which_ == EngineBackend::kScalar) {
    return each_vector(inputs, [&](std::span<const Count> in) {
      return plan_comparator_output(plan, in);
    });
  }
  return plan_sort_batch(plan, inputs, lane_pool(which_, rt));
}

std::vector<std::vector<Count>> Backend::count_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt) const {
  if (which_ == EngineBackend::kScalar) {
    return each_vector(inputs, [&](std::span<const Count> in) {
      return plan_output_counts(plan, in);
    });
  }
  return plan_count_batch(plan, inputs, lane_pool(which_, rt));
}

const Backend& backend(EngineBackend which) {
  static constexpr Backend kScalar(EngineBackend::kScalar);
  static constexpr Backend kBatch(EngineBackend::kBatch);
  static constexpr Backend kThreaded(EngineBackend::kThreaded);
  switch (which) {
    case EngineBackend::kBatch:
      return kBatch;
    case EngineBackend::kThreaded:
      return kThreaded;
    case EngineBackend::kAuto:
    case EngineBackend::kScalar:
      break;
  }
  return kScalar;
}

std::span<const EngineBackend> registered_backends() {
  static constexpr EngineBackend kAll[] = {
      EngineBackend::kScalar, EngineBackend::kBatch, EngineBackend::kThreaded};
  return kAll;
}

PlanShape plan_shape(const ExecutionPlan& plan) {
  PlanShape shape;
  shape.pair_gates = plan.pair_wires().size() / 2;
  shape.wide_gates = plan.wide_gates().size();
  return shape;
}

EngineBackend resolve_backend(EngineBackend requested,
                              const ExecutionPlan& plan, std::size_t lanes) {
  if (requested != EngineBackend::kAuto) return requested;
  // Machine caps are stable for the process (SCNET_THREADS read once) —
  // sample them once, not per dispatch.
  static const MachineCaps caps = machine_caps();
  return select_backend(plan_shape(plan), lanes, caps);
}

std::vector<Count> sorted_output(const ExecutionPlan& plan,
                                 std::span<const Count> input,
                                 EngineBackend choice) {
  const EngineBackend resolved = resolve_backend(choice, plan, 1);
  count_dispatch(resolved);
  SCNET_TRACE_SPAN_ARGS("engine", "dispatch.sorted_output",
                        dispatch_args(resolved, 1));
  // One vector has no lane dimension to vectorize or stripe: every
  // backend runs it as the one-lane walk.
  return plan_comparator_output(plan, input);
}

void sort_ascending(const ExecutionPlan& plan, std::span<Count> values,
                    EngineBackend choice) {
  const EngineBackend resolved = resolve_backend(choice, plan, 1);
  count_dispatch(resolved);
  SCNET_TRACE_SPAN_ARGS("engine", "dispatch.sort_ascending",
                        dispatch_args(resolved, 1));
  thread_local std::vector<Count> scratch;
  scratch.assign(values.begin(), values.end());
  run_plan(plan, scratch);  // the length check
  const std::span<const Wire> order = plan.output_order();
  const std::size_t n = values.size();
  for (std::size_t i = 0; i < n; ++i) {
    values[n - 1 - i] = scratch[static_cast<std::size_t>(order[i])];
  }
}

std::vector<Count> counts_output(const ExecutionPlan& plan,
                                 std::span<const Count> input,
                                 EngineBackend choice) {
  const EngineBackend resolved = resolve_backend(choice, plan, 1);
  count_dispatch(resolved);
  SCNET_TRACE_SPAN_ARGS("engine", "dispatch.counts_output",
                        dispatch_args(resolved, 1));
  return plan_output_counts(plan, input);
}

std::vector<std::vector<Count>> sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt, EngineBackend choice) {
  const EngineBackend resolved = resolve_backend(choice, plan, inputs.size());
  count_dispatch(resolved);
  SCNET_TRACE_SPAN_ARGS("engine", "dispatch.sort_batch",
                        dispatch_args(resolved, inputs.size()));
  return backend(resolved).sort_batch(plan, inputs, rt);
}

std::vector<std::vector<Count>> count_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt, EngineBackend choice) {
  const EngineBackend resolved = resolve_backend(choice, plan, inputs.size());
  count_dispatch(resolved);
  SCNET_TRACE_SPAN_ARGS("engine", "dispatch.count_batch",
                        dispatch_args(resolved, inputs.size()));
  return backend(resolved).count_batch(plan, inputs, rt);
}

}  // namespace scn::engine
