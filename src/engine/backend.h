// Pluggable execution backends for compiled plans.
//
// The execution tiers in batch_engine.h (scalar / batch / threaded) used to
// be free functions picked ad hoc by every caller. This header turns them
// into a registry of `Backend` objects behind one dispatcher:
//
//   * `scalar`   — one lane at a time through the scalar kernels; the
//                  reference implementation every other backend is pinned
//                  against.
//   * `batch`    — the cache-blocked SoA tier; lane loops auto-vectorize.
//   * `threaded` — the SoA tier sharded over the runtime's ThreadPool.
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

/// One execution strategy for a compiled plan. Implementations are
/// stateless and shared; all methods are const and thread-safe.
class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Comparator semantics over one vector (physical wire indexing, in
  /// place). Single vectors have no lane dimension to vectorize or shard,
  /// so the default — the scalar tier — is also the fast path; backends
  /// need not override.
  virtual void run(const ExecutionPlan& plan, std::span<Count> values) const;

  /// Balancer (quiescent count) semantics over one vector, in place.
  virtual void run_counts(const ExecutionPlan& plan,
                          std::span<Count> counts) const;

  /// Comparator semantics over every lane of an SoA batch, in place.
  /// batch.width() must equal plan.width(). `rt` supplies the pool for
  /// pool-using backends; others ignore it.
  virtual void run_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                         Runtime& rt) const = 0;

  /// Count propagation over every lane of an SoA batch, in place.
  virtual void run_counts_batch(const ExecutionPlan& plan,
                                Batch<Count>& batch, Runtime& rt) const = 0;

  /// Sorts many input vectors: pack -> run_batch -> unpack, results in
  /// logical output order (each equals the scalar tier's output for that
  /// lane). The threaded backend overrides this to shard the transposes
  /// with the kernels.
  [[nodiscard]] virtual std::vector<std::vector<Count>> sort_batch(
      const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
      Runtime& rt) const;

  /// Batched count propagation, logical output order.
  [[nodiscard]] virtual std::vector<std::vector<Count>> count_batch(
      const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
      Runtime& rt) const;
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
