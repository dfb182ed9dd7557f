// Execution entry points for compiled plans.
//
// Three tiers, all bit-identical to the per-gate interpreters
// (sim/comparator_sim.h, sim/count_sim.h):
//   * scalar: one vector through the plan — drop-in replacement for
//     apply_comparators / propagate_counts with layer-scheduled kernels;
//   * batch: a Batch of vectors in SoA layout, layer by layer, so width-2
//     layers vectorize across the batch dimension;
//   * threaded batch: lanes are independent, so the batch is sharded into
//     contiguous lane ranges over a ThreadPool, each shard running the whole
//     plan. No synchronization is needed between layers, and lane results
//     cannot depend on the shard boundaries — determinism is structural.
//
// Comparator entry points use the default descending numeric order (the
// fast kernels exist precisely because the order is known); callers needing
// a custom comparator stay on apply_comparators.
#pragma once

#include <span>
#include <vector>

#include "engine/batch.h"
#include "engine/execution_plan.h"
#include "perf/thread_pool.h"
#include "seq/sequence_props.h"

namespace scn {

class Runtime;  // runtime/runtime.h — source of the pool for the overloads

// ---------------------------------------------------------------------------
// Scalar tier.

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
// Batch tier (SoA).

/// Runs the plan as a comparator network over every lane of `batch` in
/// place. batch.width() must equal plan.width().
void run_plan_batch(const ExecutionPlan& plan, engine::Batch<Count>& batch);

/// Same for count propagation.
void run_plan_counts_batch(const ExecutionPlan& plan,
                           engine::Batch<Count>& batch);

// ---------------------------------------------------------------------------
// Threaded batch tier.

/// Shards the batch's lanes across `pool` (contiguous ranges, at least
/// `min_lanes_per_task` lanes each) and runs the full plan per shard.
void run_plan_batch(const ExecutionPlan& plan, engine::Batch<Count>& batch,
                    ThreadPool& pool, std::size_t min_lanes_per_task = 64);

void run_plan_counts_batch(const ExecutionPlan& plan,
                           engine::Batch<Count>& batch, ThreadPool& pool,
                           std::size_t min_lanes_per_task = 64);

// ---------------------------------------------------------------------------
// Convenience wrappers.

/// Sorts many input vectors at once: packs them into a Batch, runs the plan
/// (on `pool` if non-null), and returns each lane's values in logical output
/// order. Each result equals comparator_output_counts(net, inputs[j]).
[[nodiscard]] std::vector<std::vector<Count>> plan_sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    ThreadPool* pool = nullptr);

/// Batched count propagation; each result equals output_counts(net, in[j]).
[[nodiscard]] std::vector<std::vector<Count>> plan_count_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    ThreadPool* pool = nullptr);

/// Runtime-scoped wrappers: dispatch through the backend registry
/// (engine/backend.h) under `rt.backend()` — SCNET_BACKEND /
/// Runtime::Options::backend, default `auto`, which picks the tier from
/// plan shape x lane count x machine caps. Outputs are bit-identical to
/// the explicit-pool overloads on every backend.
[[nodiscard]] std::vector<std::vector<Count>> plan_sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt);

[[nodiscard]] std::vector<std::vector<Count>> plan_count_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt);

}  // namespace scn
