#include "verify/parallel_verify.h"

#include <atomic>
#include <memory>
#include <mutex>

#include "engine/backend.h"
#include "engine/execution_plan.h"
#include "opt/plan_cache.h"
#include "perf/thread_pool.h"
#include "seq/generators.h"

namespace scn {

CountingVerdict verify_counting_parallel(const Network& net,
                                         ParallelVerifyOptions opts,
                                         Runtime& rt) {
  const std::size_t w = net.width();
  const Count max_total = opts.base.max_total > 0
                              ? opts.base.max_total
                              : static_cast<Count>(3 * w + 7);
  // Count propagation goes through the pass pipeline and the runtime's
  // plan cache under BALANCER semantics (comparator-only passes skip
  // themselves), so repeated verifications of one network lower it once
  // and every input vector rides the layer-scheduled kernels.
  const CachedPlan cached =
      rt.compiled(net, PassOptions{.semantics = Semantics::kBalancer});
  const ExecutionPlan& plan = *cached.plan;

  std::mutex mu;
  CountingVerdict verdict;    // guarded by mu
  Count best_bad_total = -1;  // guarded by mu
  std::atomic<std::uint64_t> checked{0};

  auto check_total = [&](Count total) {
    // Per-total deterministic population: structured shapes + seeded random
    // draws (seed derived from the total so shards are independent of how
    // totals land on pool threads).
    std::vector<std::vector<Count>> inputs;
    if (opts.base.structured) {
      inputs = structured_count_vectors(w, total);
    }
    std::mt19937_64 rng(opts.base.seed ^
                        (0x9E3779B97F4A7C15ull *
                         static_cast<std::uint64_t>(total + 1)));
    for (std::size_t t = 0; t < opts.base.random_per_total; ++t) {
      inputs.push_back(random_count_vector(rng, w, total));
    }
    std::uint64_t local_checked = 0;
    for (auto& in : inputs) {
      // Per-input dispatch: single vectors resolve to the scalar tier
      // under `auto`, and a runtime pinned to a backend gets that backend
      // (bit-identical either way).
      std::vector<Count> out =
          engine::counts_output(plan, in, rt.backend());
      ++local_checked;
      if (!has_step_property(out)) {
        const std::lock_guard<std::mutex> lock(mu);
        if (verdict.ok || total < best_bad_total) {
          verdict.ok = false;
          verdict.counterexample = std::move(in);
          verdict.bad_output = std::move(out);
          best_bad_total = total;
        }
        break;  // this shard is done; other totals may still refine
      }
    }
    checked.fetch_add(local_checked, std::memory_order_relaxed);
  };

  auto shard = [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      check_total(static_cast<Count>(t));
    }
  };

  const auto totals = static_cast<std::size_t>(max_total) + 1;
  // opts.threads == 0 reuses the runtime's pool; an explicit thread count
  // gets a dedicated pool of exactly that size (test hooks, latency
  // experiments).
  if (opts.threads == 0) {
    rt.pool().parallel_for(totals, 1, shard);
  } else {
    ThreadPool pool(opts.threads);
    pool.parallel_for(totals, 1, shard);
  }

  verdict.inputs_checked = checked.load();
  return verdict;
}

}  // namespace scn
