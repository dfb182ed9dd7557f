#include "tune/experiment.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "core/factorization.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "engine/backend.h"
#include "engine/execution_plan.h"
#include "opt/plan_cache.h"
#include "perf/thread_pool.h"
#include "runtime/runtime.h"
#include "seq/generators.h"

namespace scn::tune {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Whether cells on this backend must run alone (they dispatch onto the
/// runtime pool, so sibling sweep workers would perturb the measurement
/// and be perturbed by it).
bool exclusive_backend(EngineBackend backend) {
  return engine::backend(backend).caps().uses_pool;
}

std::uint64_t cell_seed(std::uint64_t base, std::size_t index) {
  // splitmix64 step: decorrelates per-cell input streams from the index.
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

NetworkSpec NetworkSpec::member(NetworkKind kind,
                                std::vector<std::size_t> factors) {
  NetworkSpec spec;
  spec.kind = kind;
  spec.name = std::string(scn::to_string(kind)) + "(" +
              format_factors(factors) + ")";
  spec.factors = std::move(factors);
  return spec;
}

NetworkSpec NetworkSpec::named(std::string name,
                               std::function<Network(Runtime&)> build) {
  NetworkSpec spec;
  spec.name = std::move(name);
  spec.build = std::move(build);
  return spec;
}

std::string ExperimentCell::label() const {
  std::ostringstream os;
  os << network.name << " " << scn::to_string(pass_level) << "/"
     << scn::to_string(backend) << " t" << threads << " B" << lanes;
  return os.str();
}

ExperimentManager::ExperimentManager(ExperimentConfig config)
    : config_(std::move(config)) {}

void ExperimentManager::set_progress(
    std::function<void(const CellResult&)> progress) {
  progress_ = std::move(progress);
}

std::vector<ExperimentCell> ExperimentManager::cells() const {
  const ExperimentAxes& axes = config_.axes;
  std::vector<EngineBackend> backends = axes.backends;
  if (backends.empty()) {
    const auto all = engine::registered_backends();
    backends.assign(all.begin(), all.end());
  }
  std::vector<ExperimentCell> out;
  for (const NetworkSpec& spec : axes.networks) {
    for (const PassLevel level : axes.pass_levels) {
      for (const EngineBackend backend : backends) {
        // The thread axis only changes pool-using backends; sweeping a
        // scalar cell once per pool size would just duplicate rows.
        const std::size_t thread_points =
            exclusive_backend(backend)
                ? std::max<std::size_t>(axes.thread_counts.size(), 1)
                : 1;
        for (std::size_t t = 0; t < thread_points; ++t) {
          for (const std::size_t lanes : axes.batch_sizes) {
            ExperimentCell cell;
            cell.network = spec;
            cell.pass_level = level;
            cell.backend = backend;
            cell.threads =
                axes.thread_counts.empty() ? 0 : axes.thread_counts[t];
            cell.lanes = lanes;
            out.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return out;
}

CellResult ExperimentManager::run_cell(const ExperimentCell& cell) const {
  CellResult result;
  result.cell = cell;
  try {
    // A fresh private Runtime per cell: its own caches, metrics and pool,
    // sized and backend-pinned by the cell itself.
    Runtime::Options options;
    options.threads = cell.threads;
    options.pass_level = cell.pass_level;
    options.backend = cell.backend;
    Runtime rt(options);
    result.resolved_threads =
        cell.threads == 0 ? default_thread_count() : cell.threads;

    const Network net = cell.network.is_family()
                            ? (cell.network.kind == NetworkKind::kK
                                   ? make_k_network(cell.network.factors, rt)
                                   : make_l_network(cell.network.factors, rt))
                            : cell.network.build(rt);
    result.width = net.width();
    result.gates = net.gate_count();
    result.depth = net.depth();

    const CachedPlan cached = rt.compiled(
        net, cell.pass_level, PassOptions{.semantics = Semantics::kComparator});
    const ExecutionPlan& plan = *cached.plan;

    std::mt19937_64 rng(cell_seed(config_.seed, result.width * 31 +
                                                    cell.lanes));
    std::vector<std::vector<Count>> inputs;
    inputs.reserve(cell.lanes);
    for (std::size_t j = 0; j < cell.lanes; ++j) {
      inputs.push_back(random_count_vector(rng, net.width(), 1000));
    }

    // Best-of-reps under the cell's time budget: always measure at least
    // one rep; stop early once the budget is spent and record the cut.
    const auto cell_start = Clock::now();
    double best = 0.0;
    for (int rep = 0; rep < std::max(config_.reps, 1); ++rep) {
      const auto t0 = Clock::now();
      const auto outs = engine::sort_batch(plan, inputs, rt, cell.backend);
      const double elapsed = seconds_since(t0);
      // The result is observed (and the dispatcher has side effects), so
      // the measured call cannot be elided; fold one output in anyway so
      // a future pure-path refactor keeps this loop honest.
      if (outs.front().empty()) result.error = "empty output";
      if (rep == 0 || elapsed < best) best = elapsed;
      ++result.reps_run;
      if (seconds_since(cell_start) >= config_.max_cell_seconds &&
          rep + 1 < std::max(config_.reps, 1)) {
        result.timed_out = true;
        break;
      }
    }
    result.seconds = best;
    result.vectors_per_sec =
        best > 0 ? static_cast<double>(cell.lanes) / best : 0.0;
    result.ok = result.error.empty() && result.reps_run > 0;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  return result;
}

std::vector<CellResult> ExperimentManager::run() const {
  const std::vector<ExperimentCell> all = cells();
  std::vector<CellResult> results(all.size());

  // Partition: pool-using cells measure alone (serial phase); the rest
  // can share the machine with sibling workers.
  std::vector<std::size_t> parallel_ix;
  std::vector<std::size_t> exclusive_ix;
  for (std::size_t i = 0; i < all.size(); ++i) {
    (exclusive_backend(all[i].backend) ? exclusive_ix : parallel_ix)
        .push_back(i);
  }

  const MachineCaps caps = machine_caps();
  std::size_t workers = config_.parallelism;
  if (workers == 0) {
    // Auto: serial on a single-core host (a time-sliced sibling would
    // corrupt every measurement), else leave headroom for the OS and the
    // measured cells themselves.
    workers = caps.threads <= 1
                  ? 1
                  : std::min<std::size_t>(4, std::max<std::size_t>(
                                                 1, caps.threads / 2));
  }
  workers = std::min(workers, std::max<std::size_t>(parallel_ix.size(), 1));

  std::mutex progress_mutex;
  const auto record = [&](std::size_t index) {
    results[index] = run_cell(all[index]);
    if (progress_) {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      progress_(results[index]);
    }
  };

  if (workers <= 1) {
    for (const std::size_t i : parallel_ix) record(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        while (true) {
          const std::size_t slot = next.fetch_add(1);
          if (slot >= parallel_ix.size()) return;
          record(parallel_ix[slot]);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  // Serial phase: pool-using cells, one at a time, whole machine each.
  for (const std::size_t i : exclusive_ix) record(i);
  return results;
}

std::optional<ProfileCell> to_profile_cell(const CellResult& result) {
  if (!result.ok || !result.cell.network.is_family()) return std::nullopt;
  ProfileCell cell;
  cell.kind = result.cell.network.kind;
  cell.factors = result.cell.network.factors;
  cell.width = result.width;
  cell.pass_level = result.cell.pass_level;
  cell.backend = result.cell.backend;
  cell.threads = result.resolved_threads;
  cell.lanes = result.cell.lanes;
  cell.vectors_per_sec = result.vectors_per_sec;
  cell.seconds = result.seconds;
  return cell;
}

std::size_t append_results(MachineProfile& profile,
                           std::span<const CellResult> results) {
  std::size_t stored = 0;
  for (const CellResult& result : results) {
    if (const auto cell = to_profile_cell(result)) {
      profile.append(*cell);
      ++stored;
    }
  }
  return stored;
}

ExperimentConfig default_sweep(std::span<const std::size_t> widths,
                               bool quick) {
  ExperimentConfig config;
  config.name = quick ? "default_sweep_quick" : "default_sweep";
  config.reps = quick ? 2 : 3;
  config.max_cell_seconds = quick ? 0.25 : 1.0;
  const std::size_t per_width = quick ? 2 : 4;
  for (const std::size_t width : widths) {
    const auto factorizations = all_factorizations(width, 2, per_width);
    for (const auto& factors : factorizations) {
      config.axes.networks.push_back(
          NetworkSpec::member(NetworkKind::kK, factors));
      if (!quick) {
        config.axes.networks.push_back(
            NetworkSpec::member(NetworkKind::kL, factors));
      }
    }
  }
  config.axes.batch_sizes =
      quick ? std::vector<std::size_t>{256}
            : std::vector<std::size_t>{64, 1024};
  return config;
}

}  // namespace scn::tune
