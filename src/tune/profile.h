// The machine profile: measured throughput cells the autotuner
// (tune/experiment.h) produces and the planner/cost model consume.
//
// A profile is a flat store of (network shape x execution choice ->
// measured vectors/sec) cells plus a *fingerprint* of the machine and
// build that measured them. The fingerprint is derived from MachineCaps
// (worker threads) and a format version; a profile whose fingerprint does
// not match the current host is stale — every consumer falls back to the
// static policy rather than trust numbers measured on different hardware.
//
// Lifecycle (docs/tuning.md):
//   * `scnet_cli tune` runs an experiment sweep and appends its cells
//     here, then saves the store as JSON (one file per machine);
//   * `scnet_cli sort/saturate --profile=<path>` (and any caller passing
//     a profile into select_backend() / plan_network()) loads it and
//     lets measurements override the hand-written dispatch policy;
//   * a corrupt or missing file loads as "no profile" — callers keep the
//     static policy, never an exception.
//
// The JSON shape matches what bench::JsonReport writes elsewhere in the
// repo: {"machine_profile": 1, "fingerprint": "...", "cells": [ {...} ]}.
// Parsing is schema-specific and tolerant: unknown keys are ignored,
// malformed cells (including ones naming a backend this build does not
// register) are dropped, and a file that does not parse at all
// yields nullopt.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/cost_model.h"
#include "core/family.h"
#include "opt/pass.h"

namespace scn::tune {

/// One measured sweep point: this (network, execution choice) sorted
/// `lanes` vectors at `vectors_per_sec` on the fingerprinted machine.
struct ProfileCell {
  NetworkKind kind = NetworkKind::kK;
  std::vector<std::size_t> factors;  ///< width factorization, e.g. {4,4,4}
  std::size_t width = 0;             ///< product of factors
  PassLevel pass_level = PassLevel::kDefault;
  EngineBackend backend = EngineBackend::kScalar;  ///< concrete, never kAuto
  std::size_t threads = 1;  ///< pool workers the cell's runtime owned
  std::size_t lanes = 1;    ///< batch size (vectors per dispatch)
  double vectors_per_sec = 0.0;
  double seconds = 0.0;  ///< best measured rep, wall time

  /// "K(4x4x4) default/batch t1 B256" — the cell's identity for logs.
  [[nodiscard]] std::string label() const;

  /// Two cells measure the same sweep point (all key fields equal; the
  /// measured numbers are not part of the key).
  [[nodiscard]] bool same_point(const ProfileCell& other) const;
};

class MachineProfile {
 public:
  /// The fingerprint `caps` produces: "scnet-profile-v2;threads=N".
  /// Bump the version prefix when the cell schema changes incompatibly.
  [[nodiscard]] static std::string fingerprint_for(const MachineCaps& caps);

  /// A fresh profile fingerprinted for this build on this host.
  MachineProfile();
  /// A profile carrying an explicit fingerprint (loading, tests).
  explicit MachineProfile(std::string fingerprint);

  [[nodiscard]] const std::string& fingerprint() const {
    return fingerprint_;
  }

  /// True when this profile's measurements apply to `caps` (fingerprints
  /// equal). The no-argument form checks against this build's
  /// machine_caps().
  [[nodiscard]] bool matches(const MachineCaps& caps) const;
  [[nodiscard]] bool matches_host() const;

  /// Appends a cell; a cell for the same sweep point is replaced when the
  /// new measurement is faster (re-tuning refreshes, never regresses).
  void append(const ProfileCell& cell);

  [[nodiscard]] std::span<const ProfileCell> cells() const { return cells_; }
  [[nodiscard]] bool empty() const { return cells_.empty(); }

  /// The fastest cell measured at exactly (width, lanes), or — when no
  /// exact-lanes cell exists for that width — the fastest cell at the
  /// width whose lane count is nearest to `lanes`. nullptr when the
  /// profile holds no cell for the width at all: nearest-cell lookup
  /// never crosses widths, because throughput does not interpolate
  /// across network structure.
  [[nodiscard]] const ProfileCell* best_cell(std::size_t width,
                                             std::size_t lanes) const;

  /// The fastest cell for one concrete (kind, factors) at the nearest
  /// lane count; nullptr when that family member was never measured.
  [[nodiscard]] const ProfileCell* best_cell_for(
      NetworkKind kind, std::span<const std::size_t> factors,
      std::size_t lanes) const;

  /// Every width with at least one cell, ascending and unique.
  [[nodiscard]] std::vector<std::size_t> widths() const;

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static std::optional<MachineProfile> from_json(
      std::string_view text);

  /// Writes to_json() to `path`; false on I/O failure.
  [[nodiscard]] bool save(const std::string& path) const;
  /// Loads and parses `path`; nullopt when the file is missing, unreadable
  /// or corrupt — the caller's cue to keep the static policy.
  [[nodiscard]] static std::optional<MachineProfile> load(
      const std::string& path);

 private:
  std::string fingerprint_;
  std::vector<ProfileCell> cells_;
};

}  // namespace scn::tune
