// Execution entry points for compiled plans.
//
// Every entry point runs the same layer walk: the whole plan over each
// block of a lane range, through a (base, row stride) view of lane-major
// rows, with the block's lane count fixed at compile time per entry.
// Results are bit-identical to the per-gate interpreters
// (sim/comparator_sim.h, sim/count_sim.h) at every lane count:
//   * one vector is one lane at row stride 1 — a drop-in replacement for
//     apply_comparators / propagate_counts;
//   * a Batch of vectors in SoA layout is row stride = batch size, walked
//     in 256-lane blocks, so each gate's lane loop vectorizes across the
//     batch dimension; given a ThreadPool, the lanes are striped into
//     contiguous ranges, one per pool task;
//   * plan_sort_batch / plan_count_batch take the input vectors one
//     64-lane block at a time: each block is packed into a per-thread
//     buffer (row stride 64), walked through the whole plan and unpacked
//     into its output vectors while it is still in L1. A full block's lane
//     loops have a constant trip count. The lane type is chosen per block:
//     plan_sort_batch walks a block at 32-bit lanes when every value in it
//     fits in int32_t (a compare-exchange only compares and moves, so the
//     outputs are the same) and at 64-bit lanes otherwise; counts always
//     walk at 64 bits, since a balancer adds. On AVX-512 targets the walk
//     uses 512-bit vectors. Given a ThreadPool, its threads (the caller
//     among them) take blocks from one shared counter until none are
//     left, while the caller allocates the outputs in block order; a block
//     is unpacked once its outputs exist.
// No synchronization is needed between layers or blocks, and a lane's
// result cannot depend on which thread ran it — determinism is structural.
//
// While a trace records, each thread that walks sums every layer's time
// over the blocks it ran and records one `engine.layer` event per layer.
//
// Comparator entry points use the default descending numeric order (the
// fast kernels exist precisely because the order is known); callers needing
// a custom comparator stay on apply_comparators.
//
// Every entry throws std::invalid_argument when a vector's length (or a
// batch's width) differs from plan.width(), in every build; the batched
// entries check every vector before any work starts.
#pragma once

#include <span>
#include <vector>

#include "engine/batch.h"
#include "engine/execution_plan.h"
#include "perf/thread_pool.h"
#include "seq/sequence_props.h"

namespace scn {

// ---------------------------------------------------------------------------
// One vector.

/// Applies every gate of the plan to `values` (indexed by physical wire) in
/// place, layer by layer. Equivalent to apply_comparators(net, values).
void run_plan(const ExecutionPlan& plan, std::span<Count> values);

/// Runs the plan on a copy of `input` and returns values in logical output
/// order. Equivalent to comparator_output_counts(net, input).
[[nodiscard]] std::vector<Count> plan_comparator_output(
    const ExecutionPlan& plan, std::span<const Count> input);

/// Propagates quiescent token counts through the plan in place (physical
/// wire indexing). Equivalent to propagate_counts(net, input).
void run_plan_counts(const ExecutionPlan& plan, std::span<Count> counts);

/// Count propagation returning logical output order. Equivalent to
/// output_counts(net, input).
[[nodiscard]] std::vector<Count> plan_output_counts(const ExecutionPlan& plan,
                                                    std::span<const Count> input);

// ---------------------------------------------------------------------------
// Batches (SoA).

/// Runs the plan as a comparator network over every lane of `batch` in
/// place (batch.width() must equal plan.width()). With a `pool`, the lanes
/// are striped across it in contiguous ranges of at least
/// `min_lanes_per_task` lanes; without one the walk runs on the caller.
void run_plan_batch(const ExecutionPlan& plan, engine::Batch<Count>& batch,
                    ThreadPool* pool = nullptr,
                    std::size_t min_lanes_per_task = 64);

/// Same for count propagation.
void run_plan_counts_batch(const ExecutionPlan& plan,
                           engine::Batch<Count>& batch,
                           ThreadPool* pool = nullptr,
                           std::size_t min_lanes_per_task = 64);

// ---------------------------------------------------------------------------
// Vectors in, vectors out: packed and unpacked one block at a time.

/// Sorts many input vectors at once, one 64-lane block at a time (on
/// `pool`'s threads if non-null, else on the caller), and returns each
/// vector's values in logical output order. Each result equals
/// comparator_output_counts(net, inputs[j]). The outputs are allocated on
/// the calling thread, overlapped with the other threads' walk; the block
/// buffers are per-thread and only grow.
[[nodiscard]] std::vector<std::vector<Count>> plan_sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    ThreadPool* pool = nullptr);

/// Batched count propagation; each result equals output_counts(net, in[j]).
[[nodiscard]] std::vector<std::vector<Count>> plan_count_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    ThreadPool* pool = nullptr);

}  // namespace scn
