// DOT/ASCII export: well-formed output with the expected inventory.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/k_network.h"
#include "net/export.h"

namespace scn {
namespace {

TEST(Dot, ContainsAllGatesAndTerminals) {
  const Network net = make_k_network({2, 3});
  const std::string dot = to_dot(net, "k23");
  EXPECT_NE(dot.find("digraph \"k23\""), std::string::npos);
  for (std::size_t g = 0; g < net.gate_count(); ++g) {
    EXPECT_NE(dot.find(std::string("g").append(std::to_string(g)).append(" [")),
              std::string::npos);
  }
  for (std::size_t w = 0; w < net.width(); ++w) {
    EXPECT_NE(dot.find("in" + std::to_string(w) + " ["), std::string::npos);
    EXPECT_NE(dot.find("out" + std::to_string(w) + " ["), std::string::npos);
  }
  // Edge count: every gate wire contributes one edge, plus w exit edges.
  const std::size_t arrows = [&dot] {
    std::size_t n = 0;
    for (std::size_t at = dot.find("->"); at != std::string::npos;
         at = dot.find("->", at + 1)) {
      ++n;
    }
    return n;
  }();
  EXPECT_EQ(arrows, net.wire_endpoint_count() + net.width());
}

TEST(Dot, GoldenOutputIsStable) {
  // Full golden pin for a tiny network: node inventory, cluster structure
  // and edge order are part of the tool contract (docs/visualization
  // consumers diff DOT output across runs).
  const Network net = make_k_network({2, 2});
  const std::string expected =
      "digraph \"k22\" {\n"
      "  rankdir=LR;\n"
      "  node [shape=box, fontsize=10];\n"
      "  in0 [shape=point, xlabel=\"x0\"];\n"
      "  out0 [shape=point, xlabel=\"y0\"];\n"
      "  in1 [shape=point, xlabel=\"x1\"];\n"
      "  out1 [shape=point, xlabel=\"y1\"];\n"
      "  in2 [shape=point, xlabel=\"x2\"];\n"
      "  out2 [shape=point, xlabel=\"y2\"];\n"
      "  in3 [shape=point, xlabel=\"x3\"];\n"
      "  out3 [shape=point, xlabel=\"y3\"];\n"
      "  subgraph cluster_l0 {\n"
      "    label=\"L1\";\n"
      "    fontsize=9;\n"
      "    style=dashed;\n"
      "    rank=same;\n"
      "    g0 [label=\"b4 @L1\"];\n"
      "  }\n"
      "  in0 -> g0;\n"
      "  in1 -> g0;\n"
      "  in2 -> g0;\n"
      "  in3 -> g0;\n"
      "  g0 -> out0;\n"
      "  g0 -> out1;\n"
      "  g0 -> out2;\n"
      "  g0 -> out3;\n"
      "}\n";
  EXPECT_EQ(to_dot(net, "k22"), expected);
}

TEST(Dot, ClustersOnePerLayer) {
  const Network net = make_k_network({2, 3});
  const std::string dot = to_dot(net, "k23");
  for (std::size_t l = 0; l < net.depth(); ++l) {
    EXPECT_NE(dot.find("subgraph cluster_l" + std::to_string(l) + " {"),
              std::string::npos)
        << "layer " << l;
  }
  EXPECT_EQ(dot.find("subgraph cluster_l" + std::to_string(net.depth())),
            std::string::npos);
}

TEST(Dot, EscapesTitle) {
  const Network net = make_k_network({2, 2});
  const std::string dot = to_dot(net, "a\"b\\c\nd");
  EXPECT_NE(dot.find("digraph \"a\\\"b\\\\c\\nd\""), std::string::npos);
  EXPECT_EQ(dot_escape("plain"), "plain");
  EXPECT_EQ(dot_escape("q\"q"), "q\\\"q");
  EXPECT_EQ(dot_escape("b\\b"), "b\\\\b");
  EXPECT_EQ(dot_escape("n\nn"), "n\\nn");
}

TEST(Dot, ContentionOverlayColorsGates) {
  const Network net = make_k_network({2, 3});
  std::vector<std::uint64_t> visits(net.gate_count());
  for (std::size_t g = 0; g < visits.size(); ++g) visits[g] = 10 * (g + 1);
  DotOptions opts;
  opts.title = "heat";
  opts.overlay = DotOverlay::kContention;
  opts.gate_visits = visits;
  const std::string dot = to_dot(net, opts);
  EXPECT_NE(dot.find("fillcolor=\"/oranges9/"), std::string::npos);
  // Hottest gate saturates the ramp; labels carry the raw counts.
  EXPECT_NE(dot.find("/oranges9/9"), std::string::npos);
  EXPECT_NE(dot.find("\\n10v"), std::string::npos);
  // Edge inventory is unchanged by the overlay.
  std::size_t arrows = 0;
  for (std::size_t at = dot.find("->"); at != std::string::npos;
       at = dot.find("->", at + 1)) {
    ++arrows;
  }
  EXPECT_EQ(arrows, net.wire_endpoint_count() + net.width());
}

TEST(Dot, WrongLengthOverlayDataDegradesToStructural) {
  const Network net = make_k_network({2, 3});
  std::vector<std::uint64_t> stale(net.gate_count() + 1, 5);
  DotOptions opts;
  opts.overlay = DotOverlay::kContention;
  opts.gate_visits = stale;
  const std::string dot = to_dot(net, opts);
  EXPECT_EQ(dot.find("oranges9"), std::string::npos);
  EXPECT_EQ(dot, to_dot(net, "network"));
}

TEST(Ascii, OneRowPerWire) {
  const Network net = make_k_network({2, 2});
  const std::string art = to_ascii(net);
  std::size_t lines = 0;
  for (const char c : art) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, net.width());
  // Gate endpoints are drawn as '+'.
  EXPECT_NE(art.find('+'), std::string::npos);
}

TEST(Summarize, MentionsKeyStats) {
  const Network net = make_k_network({3, 2});
  const std::string s = summarize(net);
  EXPECT_NE(s.find("width=6"), std::string::npos);
  EXPECT_NE(s.find("depth=1"), std::string::npos);
  EXPECT_NE(s.find("max_gate_width=6"), std::string::npos);
}

TEST(Svg, StructureMatchesNetwork) {
  const Network net = make_k_network({2, 3});
  const std::string svg = to_svg(net, "k23");
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("k23"), std::string::npos);
  // One dot per gate endpoint.
  std::size_t circles = 0;
  for (std::size_t at = svg.find("<circle"); at != std::string::npos;
       at = svg.find("<circle", at + 1)) {
    ++circles;
  }
  EXPECT_EQ(circles, net.wire_endpoint_count());
  // One horizontal line per wire plus one vertical per gate.
  std::size_t lines = 0;
  for (std::size_t at = svg.find("<line"); at != std::string::npos;
       at = svg.find("<line", at + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, net.width() + net.gate_count());
  // Output labels reflect the logical order.
  for (std::size_t w = 0; w < net.width(); ++w) {
    EXPECT_NE(svg.find(">y" + std::to_string(w) + "<"), std::string::npos);
  }
}

TEST(Svg, EmptyNetwork) {
  const Network net = NetworkBuilder(3).finish_identity();
  const std::string svg = to_svg(net);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  std::size_t lines = 0;
  for (std::size_t at = svg.find("<line"); at != std::string::npos;
       at = svg.find("<line", at + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, 3u);
}

TEST(Dot, EmptyNetworkStillValidDot) {
  const Network net = NetworkBuilder(2).finish_identity();
  const std::string dot = to_dot(net);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("}"), std::string::npos);
}

}  // namespace
}  // namespace scn
