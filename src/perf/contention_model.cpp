#include "perf/contention_model.h"

#include <algorithm>

namespace scn {

std::vector<GateTraffic> gate_traffic(const Network& net) {
  // wire_prob[w] = probability a uniformly-random token is currently
  // travelling on physical wire w when reaching this prefix of the network.
  std::vector<double> wire_prob(net.width(),
                                net.width() ? 1.0 / static_cast<double>(
                                                  net.width())
                                            : 0.0);
  std::vector<GateTraffic> out;
  out.reserve(net.gate_count());
  const auto gates = net.gates();
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    const auto ws = net.gate_wires(gates[gi]);
    double inflow = 0.0;
    for (const Wire w : ws) inflow += wire_prob[static_cast<std::size_t>(w)];
    const double share = inflow / static_cast<double>(ws.size());
    for (const Wire w : ws) wire_prob[static_cast<std::size_t>(w)] = share;
    out.push_back({gi, inflow});
  }
  return out;
}

ContentionEstimate estimate_contention(const Network& net) {
  ContentionEstimate est;
  const auto traffic = gate_traffic(net);
  double sum = 0.0;
  for (const GateTraffic& t : traffic) {
    est.hottest_gate_fraction = std::max(est.hottest_gate_fraction, t.fraction);
    sum += t.fraction;
  }
  if (!traffic.empty()) {
    est.mean_gate_fraction = sum / static_cast<double>(traffic.size());
  }
  // Expected hops per token = sum over gates of the probability the token
  // crosses that gate = sum of traffic fractions.
  est.hops_per_token = sum;
  return est;
}

ContentionComparison compare_contention(const Network& net,
                                        std::span<const std::uint64_t> visits,
                                        std::uint64_t tokens) {
  ContentionComparison cmp;
  cmp.tokens = tokens;
  const auto traffic = gate_traffic(net);
  double abs_error_sum = 0.0;
  for (std::size_t g = 0; g < traffic.size(); ++g) {
    const double predicted = traffic[g].fraction;
    // Gates beyond the probe data (probe disabled, or a mismatched
    // network) count as unvisited rather than reading out of bounds.
    const double measured =
        (tokens == 0 || g >= visits.size())
            ? 0.0
            : static_cast<double>(visits[g]) / static_cast<double>(tokens);
    if (predicted > cmp.predicted_hottest) {
      cmp.predicted_hottest = predicted;
      cmp.predicted_gate = g;
    }
    if (measured > cmp.measured_hottest) {
      cmp.measured_hottest = measured;
      cmp.measured_gate = g;
    }
    abs_error_sum += predicted > measured ? predicted - measured
                                          : measured - predicted;
  }
  if (!traffic.empty()) {
    cmp.mean_abs_error = abs_error_sum / static_cast<double>(traffic.size());
  }
  return cmp;
}

}  // namespace scn
