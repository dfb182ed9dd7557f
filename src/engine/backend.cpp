#include "engine/backend.h"

#include <algorithm>
#include <string>

#include "engine/batch_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/thread_pool.h"

namespace scn::engine {
namespace {

// The pool repays handing out blocks only with enough lanes to hand out and
// enough work in them, and only with a second thread to take some. Work is
// counted in compare-exchanges (CEs): a width-2 gate is one, a wide gate
// the Batcher expansion the walk runs for it.
constexpr std::size_t kThreadedMinLanes = 256;
constexpr std::size_t kThreadedMinWork = std::size_t{1} << 18;  // lanes x CEs

bool pooled(const ExecutionPlan& plan, std::size_t lanes,
            std::size_t threads) {
  const std::size_t ces =
      plan.pair_wires().size() / 2 + plan.ce_wires().size() / 2;
  return threads > 1 && lanes >= kThreadedMinLanes &&
         lanes * std::max<std::size_t>(ces, 1) >= kThreadedMinWork;
}

// Builds the span args only when a trace is actually recording — dispatch
// sits on per-vector paths (verification sweeps), where an unconditional
// allocation would show up. (Unreferenced when SCNET_OBS is off: the
// trace macro it feeds compiles to nothing.)
[[maybe_unused]] std::string dispatch_args(const char* backend,
                                           std::size_t lanes) {
  if constexpr (obs::compiled_in()) {
    if (obs::Tracer::shared().active()) {
      return std::string("{\"backend\":\"") + backend +
             "\",\"lanes\":" + std::to_string(lanes) + "}";
    }
  }
  return {};
}

}  // namespace

std::vector<Count> sorted_output(const ExecutionPlan& plan,
                                 std::span<const Count> input) {
  SCNET_COUNTER_ADD("engine.backend.scalar.dispatches", 1);
  SCNET_TRACE_SPAN_ARGS("engine", "dispatch.sorted_output",
                        dispatch_args("scalar", 1));
  return plan_comparator_output(plan, input);
}

void sort_ascending(const ExecutionPlan& plan, std::span<Count> values) {
  SCNET_COUNTER_ADD("engine.backend.scalar.dispatches", 1);
  SCNET_TRACE_SPAN_ARGS("engine", "dispatch.sort_ascending",
                        dispatch_args("scalar", 1));
  thread_local std::vector<Count> scratch;
  scratch.assign(values.begin(), values.end());
  run_plan(plan, scratch);  // the length check
  const std::span<const Wire> order = plan.output_order();
  const std::size_t n = values.size();
  for (std::size_t i = 0; i < n; ++i) {
    values[n - 1 - i] = scratch[static_cast<std::size_t>(order[i])];
  }
}

std::vector<std::vector<Count>> sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt) {
  const std::size_t lanes = inputs.size();
  const bool pool = pooled(plan, lanes, rt.threads());
  if (pool) {
    SCNET_COUNTER_ADD("engine.backend.threaded.dispatches", 1);
  } else {
    SCNET_COUNTER_ADD("engine.backend.batch.dispatches", 1);
  }
  SCNET_TRACE_SPAN_ARGS("engine", "dispatch.sort_batch",
                        dispatch_args(pool ? "threaded" : "batch", lanes));
  // rt.pool() spawns the pool on first use, so a serial call never does.
  return plan_sort_batch(plan, inputs, pool ? &rt.pool() : nullptr);
}

// ---------------------------------------------------------------------------
// The scbench block of backend.h.

EngineBackend resolve_backend(EngineBackend requested,
                              const ExecutionPlan& plan, std::size_t lanes) {
  if (requested != EngineBackend::kAuto) return requested;
  return pooled(plan, lanes, pool_thread_count(0)) ? EngineBackend::kThreaded
                                                   : EngineBackend::kBatch;
}

void Backend::run_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                        Runtime& rt) const {
  run_plan_batch(plan, batch,
                 which == EngineBackend::kThreaded ? &rt.pool() : nullptr);
}

}  // namespace scn::engine

namespace scn {

const char* to_string(EngineBackend backend) {
  switch (backend) {
    case EngineBackend::kBatch:
      return "batch";
    case EngineBackend::kThreaded:
      return "threaded";
    case EngineBackend::kAuto:
      break;
  }
  return "auto";
}

}  // namespace scn
