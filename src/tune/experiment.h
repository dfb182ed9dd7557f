// The experiment manager: declarative throughput sweeps over the library's
// tuning axes, in the spirit of TCPSPSuite's manager/runner split.
//
// A sweep is data, not code: an ExperimentConfig names the axes —
//
//   networks       width factorizations (K/L family members) or arbitrary
//                  named networks (bitonic32, batcher24, ...)
//   pass_levels    optimization pipeline levels the plan is compiled at
//   backends       engine backends to dispatch on (default: all registered)
//   thread_counts  pool sizes for pool-using backends
//   batch_sizes    lanes per dispatch
//
// — and the ExperimentManager expands their cross product into cells and
// measures each one:
//
//   * every cell runs on a FRESH private scn::Runtime (own caches, own
//     metric namespace, own pool), so cells are order-independent and a
//     sweep never warms state another cell observes;
//   * cells run in parallel across worker threads, EXCEPT cells whose
//     backend dispatches onto the runtime pool — those run alone in a
//     serial phase afterwards, so a threaded cell's measurement is never
//     perturbed by sibling workers (and vice versa). On a single-core
//     host everything runs serially;
//   * each cell has a time guard: reps stop early once the cell's budget
//     (max_cell_seconds) is spent, and the result records the cut;
//   * a cell that throws (width overflow, bad factors) becomes a failed
//     CellResult, never a crashed sweep.
//
// Family-member cells convert to ProfileCells and append into a
// MachineProfile (tune/profile.h) — that is the `scnet_cli tune` loop.
// Custom-network cells (no factorization to key on) stay bench-only.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/family.h"
#include "net/network.h"
#include "opt/pass.h"
#include "tune/profile.h"

namespace scn::tune {

/// One network under test: either a family member (kind + factors; what
/// the profile can store) or an arbitrary builder under a display name.
struct NetworkSpec {
  std::string name;                  ///< display label, e.g. "K(4x4x4)"
  NetworkKind kind = NetworkKind::kK;
  std::vector<std::size_t> factors;  ///< non-empty => family member
  /// Builder for non-family networks; ignored when factors is non-empty.
  std::function<Network(Runtime&)> build;

  [[nodiscard]] bool is_family() const { return !factors.empty(); }

  /// A K/L family member (name derived from kind + factors).
  [[nodiscard]] static NetworkSpec member(NetworkKind kind,
                                          std::vector<std::size_t> factors);
  /// An arbitrary network under `name` (bench sweeps: bitonic, Batcher).
  [[nodiscard]] static NetworkSpec named(std::string name,
                                         std::function<Network(Runtime&)> build);
};

struct ExperimentAxes {
  std::vector<NetworkSpec> networks;
  std::vector<PassLevel> pass_levels = {PassLevel::kDefault};
  /// Empty => every registered engine backend (engine/backend.h order).
  std::vector<EngineBackend> backends;
  /// Pool sizes; 0 = this build's default_thread_count(). Only cells on
  /// pool-using backends vary with this axis, so non-pool backends are
  /// swept once at the first entry instead of once per entry.
  std::vector<std::size_t> thread_counts = {0};
  std::vector<std::size_t> batch_sizes = {256};
};

struct ExperimentConfig {
  std::string name = "sweep";
  ExperimentAxes axes;
  int reps = 3;                  ///< timing reps per cell (best-of)
  double max_cell_seconds = 1.0; ///< per-cell time guard across reps
  std::uint64_t seed = 2026;     ///< input generation (deterministic/cell)
  /// Worker threads for the parallel phase. 0 = auto: serial on a
  /// single-core host, else a small fraction of the machine.
  std::size_t parallelism = 0;
};

/// One point of the cross product.
struct ExperimentCell {
  NetworkSpec network;
  PassLevel pass_level = PassLevel::kDefault;
  EngineBackend backend = EngineBackend::kScalar;  ///< concrete
  std::size_t threads = 0;  ///< requested pool size (0 = build default)
  std::size_t lanes = 256;  ///< batch size

  /// "K(4x4x4) default/batch t1 B256".
  [[nodiscard]] std::string label() const;
};

struct CellResult {
  ExperimentCell cell;
  // Filled from the built network/plan.
  std::size_t width = 0;
  std::size_t gates = 0;
  std::uint32_t depth = 0;
  std::size_t resolved_threads = 0;  ///< cell.threads with 0 resolved
  // Measurement.
  double seconds = 0.0;          ///< best rep wall time
  double vectors_per_sec = 0.0;  ///< lanes / seconds
  int reps_run = 0;
  bool timed_out = false;  ///< guard cut reps short
  bool ok = false;         ///< at least one rep measured, no error
  std::string error;
};

class ExperimentManager {
 public:
  explicit ExperimentManager(ExperimentConfig config);

  [[nodiscard]] const ExperimentConfig& config() const { return config_; }

  /// The expanded cross product, in deterministic order: network-major,
  /// then pass level, backend, threads, lanes.
  [[nodiscard]] std::vector<ExperimentCell> cells() const;

  /// Called after each cell completes (any worker thread; serialized by
  /// the manager). For progress lines in CLIs and benches.
  void set_progress(std::function<void(const CellResult&)> progress);

  /// Runs every cell and returns results in cells() order.
  [[nodiscard]] std::vector<CellResult> run() const;

  /// Measures one cell in isolation (fresh Runtime, guard applied) —
  /// run()'s unit of work, exposed for tests and custom drivers.
  [[nodiscard]] CellResult run_cell(const ExperimentCell& cell) const;

 private:
  ExperimentConfig config_;
  std::function<void(const CellResult&)> progress_;
};

/// The profile row a successful family-member cell contributes; nullopt
/// for failed or custom-network cells.
[[nodiscard]] std::optional<ProfileCell> to_profile_cell(
    const CellResult& result);

/// Appends every convertible result into `profile`; returns how many
/// cells were stored.
std::size_t append_results(MachineProfile& profile,
                           std::span<const CellResult> results);

/// The canonical tuning sweep for a set of widths: K and L members over a
/// few factorizations per width, every registered backend, a small batch
/// ladder. `quick` shrinks every axis and budget to CI-smoke size.
[[nodiscard]] ExperimentConfig default_sweep(
    std::span<const std::size_t> widths, bool quick);

}  // namespace scn::tune
