// Multithreaded counting verification.
//
// Verification sweeps are embarrassingly parallel across input vectors:
// shard the (total, trial) grid over the shared scn::ThreadPool
// (perf/thread_pool.h), propagate counts through a compiled ExecutionPlan
// obtained from the runtime's plan cache (opt/plan_cache.h), and reduce
// verdicts. On a many-core host this
// turns the heavy sweeps (wide networks, deep totals) from minutes into
// seconds; results are bit-identical to the sequential verifier by
// construction (same seeds per shard, plan kernels bit-identical to the
// interpreter).
#pragma once

#include "runtime/runtime.h"
#include "verify/counting_verify.h"

namespace scn {

/// Parallel equivalent of verify_counting: same input population (the
/// structured vectors plus `random_per_total` seeded draws per total),
/// sharded by total across threads. If any shard finds a violation, one
/// witness is reported (the one with the smallest total). Compilation and
/// sharding go through `rt`'s plan cache and pool.
[[nodiscard]] CountingVerdict verify_counting_parallel(
    const Network& net, const CountingVerifyOptions& opts = {},
    Runtime& rt = Runtime::shared());

}  // namespace scn
