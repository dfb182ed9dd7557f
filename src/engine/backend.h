// Engine entry points for the layers above the engine.
//
// Each call runs the one layer walk in batch_engine.h. One vector has no
// lane dimension to split, so sorted_output and sort_ascending walk it as
// one lane on the caller. sort_batch decides by itself whether its lanes
// go to the runtime's pool: only for at least 256 lanes, at least 2^18
// lanes x compare-exchanges (a width-2 gate is one; a wide gate counts the
// Batcher expansion the walk runs for it), and a runtime of more than one
// thread (Runtime::threads()).
// Otherwise the walk runs serially on the caller, and the pool is not
// spawned. Each call bumps one `engine.backend.<name>.dispatches` counter
// (`threaded` for a pooled batch, `batch` for a serial one, `scalar` for
// one vector) and, while a trace records, opens a span in the `engine`
// category naming that choice.
//
// A pooled and a serial walk are bit-identical on every (plan, input) pair
// (tests/engine_cross_check_test.cpp), so the pool decision is purely a
// performance one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/batch.h"
#include "engine/execution_plan.h"
#include "runtime/runtime.h"
#include "seq/sequence_props.h"

namespace scn::engine {

/// Runs `plan` as a comparator network on a copy of `input`; returns
/// values in logical output order.
[[nodiscard]] std::vector<Count> sorted_output(const ExecutionPlan& plan,
                                               std::span<const Count> input);

/// Runs `plan` as a comparator network on `values` and writes the result
/// back in place, ascending (the logical output order reversed). The walk
/// runs on a per-thread scratch buffer that only grows, so a call on a
/// thread that has already sorted this width or a wider one allocates
/// nothing. Throws std::invalid_argument unless values.size() ==
/// plan.width().
void sort_ascending(const ExecutionPlan& plan, std::span<Count> values);

/// Sorts every input vector, on `rt`'s pool when the call is large enough
/// (see above), and returns each vector's values in logical output order.
[[nodiscard]] std::vector<std::vector<Count>> sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt);

}  // namespace scn::engine

namespace scn {

// ---------------------------------------------------------------------------
// scbench/main.cpp still names the backend layer this header used to
// carry. Nothing below makes a decision, and all of it goes with the next
// change to the benchmark definition:
//   * EngineBackend with to_string, and Runtime::backend(), always kAuto;
//   * resolve_backend, the name of the choice sort_batch would make at the
//     process default thread count;
//   * backend(x).run_batch, run_plan_batch on an SoA Batch, serially for
//     kBatch and on the runtime's pool for kThreaded;
//   * the trailing EngineBackend of sort_batch and sorted_output, ignored.

enum class EngineBackend : std::uint8_t { kAuto = 0, kBatch, kThreaded };

[[nodiscard]] const char* to_string(EngineBackend backend);

inline auto Runtime::backend() const { return EngineBackend::kAuto; }

namespace engine {

[[nodiscard]] EngineBackend resolve_backend(EngineBackend requested,
                                            const ExecutionPlan& plan,
                                            std::size_t lanes);

struct Backend {
  EngineBackend which;
  void run_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                 Runtime& rt) const;
};

[[nodiscard]] constexpr Backend backend(EngineBackend which) {
  return {which};
}

[[nodiscard]] inline std::vector<std::vector<Count>> sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt, EngineBackend /*ignored*/) {
  return sort_batch(plan, inputs, rt);
}

[[nodiscard]] inline std::vector<Count> sorted_output(
    const ExecutionPlan& plan, std::span<const Count> input,
    EngineBackend /*ignored*/) {
  return sorted_output(plan, input);
}

}  // namespace engine
}  // namespace scn
