// Static traffic model for shared-memory balancing networks.
//
// In the shared-memory deployment every balancer is one fetch-and-add word.
// Because balancers split traffic evenly, a width-p balancer at layer l of
// a width-w network sees p/w of the tokens entering its layer, and each
// token performs depth-many fetch-adds. This module computes:
//
//   * per-gate steady-state traffic fractions,
//   * the figures behind the family trade-off (paper §1, citing Felten et
//     al. [9]): hops per token, which falls as balancers widen, and the
//     hottest gate's traffic share, which rises with them,
//   * the comparison of those predictions against visit counts measured
//     by ConcurrentNetwork's visit probe.
//
// It predicts where traffic goes, not how long a token takes. Throughput
// is measured (bench_fetch_inc), and the wide-vs-deep crossover is
// reproduced under an explicit simulated regime (bench_event_sim).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/network.h"

namespace scn {

struct GateTraffic {
  std::size_t gate = 0;     ///< gate index
  double fraction = 0.0;    ///< share of all tokens crossing this gate
};

/// Steady-state traffic share per gate under uniformly random input wires:
/// exact propagation of per-wire probabilities through the balancers
/// (a width-p gate forwards 1/p of its aggregate inflow per output).
[[nodiscard]] std::vector<GateTraffic> gate_traffic(const Network& net);

struct ContentionEstimate {
  double hottest_gate_fraction = 0.0;  ///< max traffic share over gates
  double mean_gate_fraction = 0.0;
  /// Expected fetch-adds per token (== mean path length over wires).
  double hops_per_token = 0.0;
};

/// Aggregates gate_traffic into the summary figures above.
[[nodiscard]] ContentionEstimate estimate_contention(const Network& net);

/// The analytical model checked against a measured run: per-gate traffic
/// predictions from gate_traffic() next to visit counts observed by
/// ConcurrentNetwork's visit probe. A measured fraction is visits[g] /
/// tokens — directly comparable to GateTraffic::fraction.
struct ContentionComparison {
  double predicted_hottest = 0.0;  ///< max predicted traffic fraction
  double measured_hottest = 0.0;   ///< max measured traffic fraction
  std::size_t predicted_gate = 0;  ///< argmax gate of the prediction
  std::size_t measured_gate = 0;   ///< argmax gate of the measurement
  /// Mean over gates of |predicted - measured| fraction.
  double mean_abs_error = 0.0;
  std::uint64_t tokens = 0;  ///< tokens behind the measurement

  /// |measured - predicted| / predicted for the hottest gate (0 when the
  /// prediction is degenerate). Round-robin balancers make measured
  /// traffic nearly deterministic, so this is small — see
  /// docs/observability.md for the tolerance bench_obs_overhead gates on.
  [[nodiscard]] double hottest_relative_error() const {
    if (predicted_hottest <= 0.0) return 0.0;
    const double d = measured_hottest - predicted_hottest;
    return (d < 0 ? -d : d) / predicted_hottest;
  }
};

/// Joins estimate-side gate_traffic(net) with probe-side visit counts
/// (`visits` indexed by gate, `tokens` the total routed — both from
/// ConcurrentNetwork::gate_visits() after a run). Gates without probe
/// data (`visits` shorter than the gate count, e.g. the probe was never
/// enabled) are treated as unvisited (measured fraction 0).
[[nodiscard]] ContentionComparison compare_contention(
    const Network& net, std::span<const std::uint64_t> visits,
    std::uint64_t tokens);

}  // namespace scn
