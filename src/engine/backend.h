// Execution backends for compiled plans.
//
// The three backends are three ways of feeding lanes to the one layer walk
// in batch_engine.h:
//
//   * `scalar`   — one lane at a time, each gathered into a contiguous
//                  vector and walked at row stride 1; the reference every
//                  other backend is pinned against.
//   * `batch`    — the cache-blocked SoA walk over every lane on the
//                  caller's thread; lane loops auto-vectorize.
//   * `threaded` — the same walk on the runtime's ThreadPool (a Batch in
//                  stripes, input vectors in 64-lane blocks).
//
// Callers do not pick a Backend directly: they pass an EngineBackend
// *request* (core/cost_model.h) — typically `Runtime::backend()`, which is
// `SCNET_BACKEND` resolved once at runtime construction, default kAuto —
// and the dispatch entry points below resolve kAuto per call through
// select_backend() (plan shape x lane count x machine caps). Every
// dispatch records an `engine.backend.<name>.dispatches` counter and, when
// a trace is recording, a span in the `engine` category carrying the
// chosen backend as an arg.
//
// All backends are bit-identical on every (plan, input) pair — enforced by
// tests/engine_cross_check_test.cpp's randomized all-backend sweep — so
// backend choice is purely a performance decision.
#pragma once

#include <span>
#include <vector>

#include "core/cost_model.h"
#include "engine/batch.h"
#include "engine/execution_plan.h"
#include "seq/sequence_props.h"

namespace scn {

class Runtime;  // runtime/runtime.h — source of the pool for run_batch

namespace engine {

/// One execution strategy for a compiled plan: a concrete EngineBackend
/// bound to the batch_engine.h entry points. Instances are shared and
/// immutable; all methods are const and thread-safe.
class Backend {
 public:
  explicit constexpr Backend(EngineBackend which) : which_(which) {}

  [[nodiscard]] const char* name() const { return to_string(which_); }

  /// Comparator semantics over every lane of an SoA batch, in place.
  /// Throws std::invalid_argument unless batch.width() == plan.width().
  /// `rt` supplies the pool for the threaded backend; the others ignore it.
  void run_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                 Runtime& rt) const;

  /// Sorts many input vectors; each result, in logical output order,
  /// equals the scalar tier's output for that vector.
  [[nodiscard]] std::vector<std::vector<Count>> sort_batch(
      const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
      Runtime& rt) const;

  /// Batched count propagation, logical output order.
  [[nodiscard]] std::vector<std::vector<Count>> count_batch(
      const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
      Runtime& rt) const;

 private:
  EngineBackend which_;
};

/// The registered implementation for a concrete (non-kAuto) choice.
/// kAuto is not an implementation — resolve it first (resolve_backend);
/// passing it here returns the scalar reference backend.
[[nodiscard]] const Backend& backend(EngineBackend which);

/// Every concrete registered backend, in registration order
/// (scalar, batch, threaded) — the sweep tests iterate this.
[[nodiscard]] std::span<const EngineBackend> registered_backends();

/// The shape facts the dispatch policy scores a plan by.
[[nodiscard]] PlanShape plan_shape(const ExecutionPlan& plan);

/// Resolves a backend request for running `lanes` lanes through `plan`:
/// concrete requests pass through; kAuto goes to select_backend() with
/// this build's machine_caps().
[[nodiscard]] EngineBackend resolve_backend(EngineBackend requested,
                                            const ExecutionPlan& plan,
                                            std::size_t lanes);

// ---------------------------------------------------------------------------
// Dispatch entry points — what the layers above the engine call. Each
// resolves the request, bumps `engine.backend.<name>.dispatches`, opens a
// traced span carrying the choice, and runs the selected backend.

/// Runs `plan` as a comparator network on a copy of `input`; returns
/// values in logical output order.
[[nodiscard]] std::vector<Count> sorted_output(const ExecutionPlan& plan,
                                               std::span<const Count> input,
                                               EngineBackend choice);

/// Runs `plan` as a comparator network on `values` and writes the result
/// back in place, ascending (the logical output order reversed). The walk
/// runs on a per-thread scratch buffer that only grows, so a call on a
/// thread that has already sorted this width or a wider one allocates
/// nothing. Throws std::invalid_argument unless values.size() ==
/// plan.width().
void sort_ascending(const ExecutionPlan& plan, std::span<Count> values,
                    EngineBackend choice);

/// Count propagation on a copy of `input`, logical output order.
[[nodiscard]] std::vector<Count> counts_output(const ExecutionPlan& plan,
                                               std::span<const Count> input,
                                               EngineBackend choice);

/// Sorts every input vector through the resolved backend.
[[nodiscard]] std::vector<std::vector<Count>> sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt, EngineBackend choice);

/// Batched count propagation through the resolved backend.
[[nodiscard]] std::vector<std::vector<Count>> count_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt, EngineBackend choice);

}  // namespace engine
}  // namespace scn
