#include "engine/backend.h"

#include <cassert>
#include <string>

#include "engine/batch_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/runtime.h"

namespace scn::engine {
namespace {

// ---------------------------------------------------------------------------
// Backend implementations. All stateless; metrics stay the tier functions'
// job (engine.run.scalar / engine.run.batch fire where the work happens,
// not in the dispatcher), so the backends are thin adapters over
// batch_engine.h.

class ScalarBackend final : public Backend {
 public:
  [[nodiscard]] const char* name() const override { return "scalar"; }
  void run_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                 Runtime& /*rt*/) const override {
    assert(batch.width() == plan.width());
    for (std::size_t j = 0; j < batch.batch_size(); ++j) {
      std::vector<Count> values = batch.lane(j);
      run_plan(plan, values);
      batch.set_lane(j, values);
    }
  }
  void run_counts_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                        Runtime& /*rt*/) const override {
    assert(batch.width() == plan.width());
    for (std::size_t j = 0; j < batch.batch_size(); ++j) {
      std::vector<Count> counts = batch.lane(j);
      run_plan_counts(plan, counts);
      batch.set_lane(j, counts);
    }
  }
};

class BatchBackend final : public Backend {
 public:
  [[nodiscard]] const char* name() const override { return "batch"; }
  void run_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                 Runtime& /*rt*/) const override {
    run_plan_batch(plan, batch);
  }
  void run_counts_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                        Runtime& /*rt*/) const override {
    run_plan_counts_batch(plan, batch);
  }
};

class ThreadedBackend final : public Backend {
 public:
  [[nodiscard]] const char* name() const override { return "threaded"; }
  void run_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                 Runtime& rt) const override {
    run_plan_batch(plan, batch, rt.pool());
  }
  void run_counts_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                        Runtime& rt) const override {
    run_plan_counts_batch(plan, batch, rt.pool());
  }
  // The tier's pack -> run -> unpack path shards the transposes along with
  // the kernels; keep it instead of the serial default.
  [[nodiscard]] std::vector<std::vector<Count>> sort_batch(
      const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
      Runtime& rt) const override {
    return plan_sort_batch(plan, inputs, &rt.pool());
  }
  [[nodiscard]] std::vector<std::vector<Count>> count_batch(
      const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
      Runtime& rt) const override {
    return plan_count_batch(plan, inputs, &rt.pool());
  }
};

// ---------------------------------------------------------------------------
// Dispatch plumbing.

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

void Backend::run(const ExecutionPlan& plan, std::span<Count> values) const {
  run_plan(plan, values);
}

void Backend::run_counts(const ExecutionPlan& plan,
                         std::span<Count> counts) const {
  run_plan_counts(plan, counts);
}

std::vector<std::vector<Count>> Backend::sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt) const {
  Batch<Count> batch = pack_batch(inputs, plan.width());
  run_batch(plan, batch, rt);
  std::vector<std::vector<Count>> outs;
  outs.reserve(inputs.size());
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    outs.push_back(batch.lane_in_order(j, plan.output_order()));
  }
  return outs;
}

std::vector<std::vector<Count>> Backend::count_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt) const {
  Batch<Count> batch = pack_batch(inputs, plan.width());
  run_counts_batch(plan, batch, rt);
  std::vector<std::vector<Count>> outs;
  outs.reserve(inputs.size());
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    outs.push_back(batch.lane_in_order(j, plan.output_order()));
  }
  return outs;
}

const Backend& backend(EngineBackend which) {
  static const ScalarBackend scalar;
  static const BatchBackend batch;
  static const ThreadedBackend threaded;
  switch (which) {
    case EngineBackend::kBatch:
      return batch;
    case EngineBackend::kThreaded:
      return threaded;
    case EngineBackend::kAuto:
    case EngineBackend::kScalar:
      break;
  }
  return scalar;
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
  std::vector<Count> values(input.begin(), input.end());
  backend(resolved).run(plan, values);
  return in_output_order(plan, values);
}

std::vector<Count> counts_output(const ExecutionPlan& plan,
                                 std::span<const Count> input,
                                 EngineBackend choice) {
  const EngineBackend resolved = resolve_backend(choice, plan, 1);
  count_dispatch(resolved);
  SCNET_TRACE_SPAN_ARGS("engine", "dispatch.counts_output",
                        dispatch_args(resolved, 1));
  std::vector<Count> counts(input.begin(), input.end());
  backend(resolved).run_counts(plan, counts);
  return in_output_order(plan, counts);
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
