#include "net/export.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

namespace scn {

namespace {

/// Maps a visit count onto the 9-step Graphviz `oranges9` scheme: 1 for
/// cold gates, 9 for the hottest. Linear in visits/max — contention is
/// what the ramp should scream about, and the hottest gate IS the story.
std::size_t heat_bucket(std::uint64_t visits, std::uint64_t max_visits) {
  if (max_visits == 0 || visits == 0) return 1;
  const std::size_t bucket =
      1 + static_cast<std::size_t>((visits * 8) / max_visits);
  return std::min<std::size_t>(bucket, 9);
}

// Gate gi's smallest and largest wire: a diagram draws it across the span.
std::pair<Wire, Wire> wire_span(const Network& net, std::size_t gi) {
  const auto ws = net.gate_wires(net.gates()[gi]);
  const auto [mn, mx] = std::minmax_element(ws.begin(), ws.end());
  return {*mn, *mx};
}

// A layer's gates packed greedily into diagram columns: each gate joins the
// first column holding no gate whose wire span overlaps its own.
std::vector<std::vector<std::size_t>> pack_columns(
    const Network& net, const std::vector<std::size_t>& layer) {
  std::vector<std::vector<std::size_t>> columns;
  for (const std::size_t gi : layer) {
    const auto [mn, mx] = wire_span(net, gi);
    const auto fits = [&](const std::vector<std::size_t>& col) {
      return std::none_of(col.begin(), col.end(), [&](std::size_t other) {
        const auto [omn, omx] = wire_span(net, other);
        return !(mx < omn || omx < mn);
      });
    };
    const auto col = std::find_if(columns.begin(), columns.end(), fits);
    (col == columns.end() ? columns.emplace_back() : *col).push_back(gi);
  }
  return columns;
}

}  // namespace

std::string dot_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        break;  // never useful inside a DOT label
      default:
        out += c;
    }
  }
  return out;
}

std::string to_dot(const Network& net, const DotOptions& opts) {
  // Overlay data is trusted only at the expected length — a stale span
  // (e.g. visits captured before a rewrite pass changed the gate count)
  // silently degrades to the structural rendering rather than misleading.
  const bool heat = opts.overlay == DotOverlay::kContention &&
                    opts.gate_visits.size() == net.gate_count();
  std::uint64_t max_visits = 0;
  if (heat) {
    for (const std::uint64_t v : opts.gate_visits) {
      max_visits = std::max(max_visits, v);
    }
  }

  std::ostringstream os;
  os << "digraph \"" << dot_escape(opts.title) << "\" {\n";
  os << "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  // Terminal nodes.
  for (std::size_t w = 0; w < net.width(); ++w) {
    os << "  in" << w << " [shape=point, xlabel=\"x" << w << "\"];\n";
    os << "  out" << w << " [shape=point, xlabel=\"y" << w << "\"];\n";
  }
  // One cluster per layer: gate declarations live inside, rank-aligned, so
  // a rendered module reads as a column the way the paper draws it. Node
  // ids stay flat (`g<i>`), which keeps the edge statements — and any
  // consumer grepping for them — identical to the unclustered form.
  const auto gates = net.gates();
  const auto layer_groups = net.layers();
  for (std::size_t l = 0; l < layer_groups.size(); ++l) {
    os << "  subgraph cluster_l" << l << " {\n";
    // Label with the gates' own (1-based) layer number so the cluster
    // caption matches the per-gate "@L<k>" annotations.
    const std::size_t shown_layer =
        layer_groups[l].empty() ? l + 1 : gates[layer_groups[l][0]].layer;
    os << "    label=\"L" << shown_layer
       << "\";\n    fontsize=9;\n    style=dashed;\n    rank=same;\n";
    for (const std::size_t gi : layer_groups[l]) {
      os << "    g" << gi << " [label=\"b" << gates[gi].width << " @L"
         << gates[gi].layer;
      if (heat) os << "\\n" << opts.gate_visits[gi] << "v";
      os << "\"";
      if (heat) {
        os << ", style=filled, fillcolor=\"/oranges9/"
           << heat_bucket(opts.gate_visits[gi], max_visits) << "\"";
      }
      os << "];\n";
    }
    os << "  }\n";
  }
  // Edges: walk each wire through its gate sequence.
  std::vector<std::string> frontier(net.width());
  for (std::size_t w = 0; w < net.width(); ++w) {
    frontier[w] = std::string("in").append(std::to_string(w));
  }
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    for (const Wire w : net.gate_wires(gates[gi])) {
      os << "  " << frontier[static_cast<std::size_t>(w)] << " -> g" << gi
         << ";\n";
      frontier[static_cast<std::size_t>(w)] =
          std::string("g").append(std::to_string(gi));
    }
  }
  for (std::size_t w = 0; w < net.width(); ++w) {
    os << "  " << frontier[w] << " -> out" << net.output_position(
        static_cast<Wire>(w)) << ";\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const Network& net, const std::string& title) {
  DotOptions opts;
  opts.title = title;
  return to_dot(net, opts);
}

std::string to_ascii(const Network& net) {
  // Within a layer, gates whose wire spans overlap occupy distinct columns
  // (pack_columns).
  const auto layer_groups = net.layers();
  std::vector<std::string> rows(net.width());
  auto pad_all = [&](char fill) {
    const std::size_t target =
        std::max_element(rows.begin(), rows.end(),
                         [](const auto& a, const auto& b) {
                           return a.size() < b.size();
                         })
            ->size();
    for (auto& r : rows) r.resize(target, fill);
  };
  for (auto& r : rows) r = "--";
  for (const auto& layer : layer_groups) {
    for (const auto& col : pack_columns(net, layer)) {
      const std::size_t at = rows[0].size();
      for (auto& r : rows) r.push_back('-');
      for (const std::size_t gi : col) {
        const auto [mn, mx] = wire_span(net, gi);
        for (Wire w = mn; w <= mx; ++w) {
          rows[static_cast<std::size_t>(w)][at] = '|';
        }
        for (const Wire w : net.gate_wires(net.gates()[gi])) {
          rows[static_cast<std::size_t>(w)][at] = '+';
        }
      }
      for (auto& r : rows) r.push_back('-');
      pad_all('-');
    }
  }
  for (auto& r : rows) r += "--";
  std::ostringstream os;
  for (std::size_t w = 0; w < net.width(); ++w) {
    os << (w < 10 ? " " : "") << w << " " << rows[w] << "  y"
       << net.output_position(static_cast<Wire>(w)) << "\n";
  }
  return os.str();
}

std::string to_svg(const Network& net, const std::string& title) {
  // Geometry: wires are horizontal lines spaced kWireGap apart; within a
  // layer, gates whose [min, max] wire spans overlap occupy distinct
  // x-columns (pack_columns, as in the ASCII view).
  constexpr int kWireGap = 22;
  constexpr int kColGap = 26;
  constexpr int kMargin = 40;

  const auto layer_groups = net.layers();
  std::vector<std::vector<std::vector<std::size_t>>> columns_per_layer;
  std::size_t total_columns = 0;
  for (const auto& layer : layer_groups) {
    columns_per_layer.push_back(pack_columns(net, layer));
    total_columns += columns_per_layer.back().size();
  }

  const int width_px =
      2 * kMargin + static_cast<int>(total_columns + 1) * kColGap;
  const int height_px =
      2 * kMargin + static_cast<int>(net.width() - 1) * kWireGap;
  const auto wire_y = [&](Wire w) {
    return kMargin + static_cast<int>(w) * kWireGap;
  };

  std::ostringstream os;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width_px
     << "\" height=\"" << height_px + 24 << "\" font-family=\"monospace\">\n";
  os << "<title>" << title << "</title>\n";
  // Wires.
  for (std::size_t w = 0; w < net.width(); ++w) {
    const int y = wire_y(static_cast<Wire>(w));
    os << "<line x1=\"" << kMargin << "\" y1=\"" << y << "\" x2=\""
       << width_px - kMargin << "\" y2=\"" << y
       << "\" stroke=\"#888\" stroke-width=\"1\"/>\n";
    os << "<text x=\"" << 6 << "\" y=\"" << y + 4 << "\" font-size=\"11\">x"
       << w << "</text>\n";
    os << "<text x=\"" << width_px - kMargin + 6 << "\" y=\"" << y + 4
       << "\" font-size=\"11\">y"
       << net.output_position(static_cast<Wire>(w)) << "</text>\n";
  }
  // Gates.
  int x = kMargin + kColGap;
  for (const auto& columns : columns_per_layer) {
    for (const auto& col : columns) {
      for (const std::size_t gi : col) {
        const auto [mn, mx] = wire_span(net, gi);
        os << "<line x1=\"" << x << "\" y1=\"" << wire_y(mn) << "\" x2=\""
           << x << "\" y2=\"" << wire_y(mx)
           << "\" stroke=\"#000\" stroke-width=\"2\"/>\n";
        for (const Wire w : net.gate_wires(net.gates()[gi])) {
          os << "<circle cx=\"" << x << "\" cy=\"" << wire_y(w)
             << "\" r=\"4\" fill=\"#000\"/>\n";
        }
      }
      x += kColGap;
    }
  }
  os << "<text x=\"" << kMargin << "\" y=\"" << height_px + 16
     << "\" font-size=\"12\">" << title << " — " << summarize(net)
     << "</text>\n";
  os << "</svg>\n";
  return os.str();
}

std::string summarize(const Network& net) {
  std::ostringstream os;
  os << "width=" << net.width() << " depth=" << net.depth()
     << " gates=" << net.gate_count()
     << " max_gate_width=" << net.max_gate_width() << " widths{";
  const auto hist = net.gate_width_histogram();
  bool first = true;
  for (std::size_t p = 0; p < hist.size(); ++p) {
    if (hist[p] == 0) continue;
    if (!first) os << ", ";
    os << p << ":" << hist[p];
    first = false;
  }
  os << "}";
  return os.str();
}

}  // namespace scn
