// Umbrella header: the whole scnet public API.
//
// For fine-grained includes use the per-subsystem headers; this header is
// the "just give me everything" entry point for applications.
#pragma once

#include "api/high_level.h"             // IWYU pragma: export
#include "baseline/batcher.h"           // IWYU pragma: export
#include "baseline/bitonic.h"           // IWYU pragma: export
#include "baseline/bubble.h"            // IWYU pragma: export
#include "baseline/columnsort.h"        // IWYU pragma: export
#include "baseline/cyclic_adapter.h"    // IWYU pragma: export
#include "baseline/periodic.h"          // IWYU pragma: export
#include "core/bitonic_converter.h"     // IWYU pragma: export
#include "core/counting_network.h"      // IWYU pragma: export
#include "core/factorization.h"         // IWYU pragma: export
#include "core/family.h"                // IWYU pragma: export
#include "core/k_network.h"             // IWYU pragma: export
#include "core/l_network.h"             // IWYU pragma: export
#include "core/merger.h"                // IWYU pragma: export
#include "core/r_decomposition.h"       // IWYU pragma: export
#include "core/r_network.h"             // IWYU pragma: export
#include "core/staircase_merger.h"      // IWYU pragma: export
#include "core/two_merger.h"            // IWYU pragma: export
#include "count/counting_tree.h"        // IWYU pragma: export
#include "count/fetch_inc.h"            // IWYU pragma: export
#include "engine/backend.h"             // IWYU pragma: export
#include "engine/batch.h"               // IWYU pragma: export
#include "engine/batch_engine.h"        // IWYU pragma: export
#include "engine/execution_plan.h"      // IWYU pragma: export
#include "engine/kernels.h"             // IWYU pragma: export
#include "net/analyze.h"                // IWYU pragma: export
#include "net/export.h"                 // IWYU pragma: export
#include "net/linked_network.h"         // IWYU pragma: export
#include "net/network.h"                // IWYU pragma: export
#include "net/serialize.h"              // IWYU pragma: export
#include "net/transform.h"              // IWYU pragma: export
#include "obs/metrics.h"                // IWYU pragma: export
#include "obs/trace.h"                  // IWYU pragma: export
#include "opt/expand.h"                 // IWYU pragma: export
#include "opt/plan_cache.h"             // IWYU pragma: export
#include "perf/contention_model.h"      // IWYU pragma: export
#include "perf/thread_pool.h"           // IWYU pragma: export
#include "runtime/runtime.h"            // IWYU pragma: export
#include "seq/generators.h"             // IWYU pragma: export
#include "seq/matrix_layout.h"          // IWYU pragma: export
#include "seq/sequence_props.h"         // IWYU pragma: export
#include "sim/comparator_sim.h"         // IWYU pragma: export
#include "sim/concurrent_sim.h"         // IWYU pragma: export
#include "sim/count_sim.h"              // IWYU pragma: export
#include "sim/event_sim.h"              // IWYU pragma: export
#include "sim/manual_router.h"          // IWYU pragma: export
#include "sim/pipeline_sim.h"           // IWYU pragma: export
#include "sim/token_sim.h"              // IWYU pragma: export
#include "verify/checkers.h"            // IWYU pragma: export
#include "verify/counting_verify.h"     // IWYU pragma: export
#include "verify/fast_zero_one.h"       // IWYU pragma: export
#include "verify/parallel_verify.h"     // IWYU pragma: export
#include "verify/smoothing.h"           // IWYU pragma: export
#include "verify/sorting_verify.h"      // IWYU pragma: export
