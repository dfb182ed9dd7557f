// Rendering of networks for inspection: Graphviz DOT and a wire-diagram
// ASCII view in the style of the paper's figures.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "net/network.h"

namespace scn {

/// Metric overlay painted onto the DOT rendering (see DotOptions).
enum class DotOverlay {
  kNone,        ///< structural rendering only
  kContention,  ///< gates heat-colored by per-gate visit counts
};

/// Options for the DOT renderer. The overlay data comes in as a plain span
/// so this header stays free of sim dependencies: callers bring per-gate
/// visit counts from the sim's visit probe. A span that is empty or of the
/// wrong length degrades to the structural rendering (never an error).
struct DotOptions {
  std::string title = "network";
  DotOverlay overlay = DotOverlay::kNone;
  /// kContention: visits per gate, indexed by gate id (net.gate_count()).
  std::span<const std::uint64_t> gate_visits = {};
};

/// Graphviz DOT rendering: one node per gate (labelled with its width and
/// layer), one cluster subgraph per layer (rank-aligned inside), edges
/// along wires. Input and output terminals are shown as point nodes.
/// The contention overlay colors each gate by its visit count (see
/// DotOptions).
[[nodiscard]] std::string to_dot(const Network& net, const DotOptions& opts);
[[nodiscard]] std::string to_dot(const Network& net,
                                 const std::string& title = "network");

/// Escapes a string for use inside a double-quoted DOT string literal
/// (backslashes, quotes, newlines).
[[nodiscard]] std::string dot_escape(const std::string& s);

/// ASCII wire diagram: one row per physical wire, time flowing left to
/// right, one column group per layer. Gates are drawn as vertical spans with
/// '+' at touched wires and '|' across skipped wires, analogous to the
/// figures in the paper. Intended for widths up to a few dozen wires.
[[nodiscard]] std::string to_ascii(const Network& net);

/// One-line structural summary: width/depth/gates/max gate width/histogram.
[[nodiscard]] std::string summarize(const Network& net);

/// SVG rendering in the style of the paper's figures: horizontal wires,
/// one column group per layer, each gate a vertical segment with a filled
/// dot on every touched wire. Output wire labels show the logical order.
[[nodiscard]] std::string to_svg(const Network& net,
                                 const std::string& title = "network");

}  // namespace scn
