// Golden regression tests for the figure renderers: small canonical
// networks must render exactly the recorded diagrams. Catches accidental
// changes to gate ordering, layering or the output permutation.
#include <gtest/gtest.h>

#include "baseline/bitonic.h"
#include "core/k_network.h"
#include "core/two_merger.h"
#include "net/export.h"
#include "net/serialize.h"

namespace scn {
namespace {

TEST(Golden, K22SerializedForm) {
  EXPECT_EQ(serialize_network(make_k_network({2, 2})),
            "scnet 1\n"
            "width 4\n"
            "gate 0 1 2 3\n"
            "output 0 1 2 3\n");
}

TEST(Golden, Bitonic4SerializedForm) {
  // Bitonic[4]: two 2-balancers, merger of (even-with-odd) pairs, final
  // exchange layer.
  EXPECT_EQ(serialize_network(make_bitonic_network(2)),
            "scnet 1\n"
            "width 4\n"
            "gate 0 1\n"
            "gate 2 3\n"
            "gate 0 3\n"
            "gate 1 2\n"
            "gate 0 1\n"
            "gate 3 2\n"
            "output 0 1 3 2\n");
}

TEST(Golden, TwoMerger222SerializedForm) {
  // T(2,2,2): X0 = wires 0..3 column-major, X1 = wires 4..7 reverse
  // column-major; 4-wide rows then 2-wide columns.
  EXPECT_EQ(serialize_network(make_two_merger_network(2, 2, 2)),
            "scnet 1\n"
            "width 8\n"
            "gate 0 2 7 5\n"
            "gate 1 3 6 4\n"
            "gate 0 1\n"
            "gate 2 3\n"
            "gate 7 6\n"
            "gate 5 4\n"
            "output 0 1 2 3 7 6 5 4\n");
}

TEST(Golden, K22Ascii) {
  EXPECT_EQ(to_ascii(make_k_network({2, 2})),
            " 0 --+---  y0\n"
            " 1 --+---  y1\n"
            " 2 --+---  y2\n"
            " 3 --+---  y3\n");
}

TEST(Golden, Bitonic2Ascii) {
  EXPECT_EQ(to_ascii(make_bitonic_network(1)),
            " 0 --+---  y0\n"
            " 1 --+---  y1\n");
}

TEST(Golden, Bitonic4Ascii) {
  // The merge layer's gates (0,3) and (1,2) overlap, so they take two
  // columns.
  EXPECT_EQ(to_ascii(make_bitonic_network(2)),
            " 0 --+-+---+---  y0\n"
            " 1 --+-|-+-+---  y1\n"
            " 2 --+-|-+-+---  y3\n"
            " 3 --+-+---+---  y2\n");
}

TEST(Golden, Bitonic4Svg) {
  // The same column packing as the ASCII view: six gates in four columns.
  EXPECT_EQ(to_svg(make_bitonic_network(2), "bitonic4"),
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"210\" height=\"170\" font-family=\"monospace\">\n"
            "<title>bitonic4</title>\n"
            "<line x1=\"40\" y1=\"40\" x2=\"170\" y2=\"40\" stroke=\"#888\" stroke-width=\"1\"/>\n"
            "<text x=\"6\" y=\"44\" font-size=\"11\">x0</text>\n"
            "<text x=\"176\" y=\"44\" font-size=\"11\">y0</text>\n"
            "<line x1=\"40\" y1=\"62\" x2=\"170\" y2=\"62\" stroke=\"#888\" stroke-width=\"1\"/>\n"
            "<text x=\"6\" y=\"66\" font-size=\"11\">x1</text>\n"
            "<text x=\"176\" y=\"66\" font-size=\"11\">y1</text>\n"
            "<line x1=\"40\" y1=\"84\" x2=\"170\" y2=\"84\" stroke=\"#888\" stroke-width=\"1\"/>\n"
            "<text x=\"6\" y=\"88\" font-size=\"11\">x2</text>\n"
            "<text x=\"176\" y=\"88\" font-size=\"11\">y3</text>\n"
            "<line x1=\"40\" y1=\"106\" x2=\"170\" y2=\"106\" stroke=\"#888\" stroke-width=\"1\"/>\n"
            "<text x=\"6\" y=\"110\" font-size=\"11\">x3</text>\n"
            "<text x=\"176\" y=\"110\" font-size=\"11\">y2</text>\n"
            "<line x1=\"66\" y1=\"40\" x2=\"66\" y2=\"62\" stroke=\"#000\" stroke-width=\"2\"/>\n"
            "<circle cx=\"66\" cy=\"40\" r=\"4\" fill=\"#000\"/>\n"
            "<circle cx=\"66\" cy=\"62\" r=\"4\" fill=\"#000\"/>\n"
            "<line x1=\"66\" y1=\"84\" x2=\"66\" y2=\"106\" stroke=\"#000\" stroke-width=\"2\"/>\n"
            "<circle cx=\"66\" cy=\"84\" r=\"4\" fill=\"#000\"/>\n"
            "<circle cx=\"66\" cy=\"106\" r=\"4\" fill=\"#000\"/>\n"
            "<line x1=\"92\" y1=\"40\" x2=\"92\" y2=\"106\" stroke=\"#000\" stroke-width=\"2\"/>\n"
            "<circle cx=\"92\" cy=\"40\" r=\"4\" fill=\"#000\"/>\n"
            "<circle cx=\"92\" cy=\"106\" r=\"4\" fill=\"#000\"/>\n"
            "<line x1=\"118\" y1=\"62\" x2=\"118\" y2=\"84\" stroke=\"#000\" stroke-width=\"2\"/>\n"
            "<circle cx=\"118\" cy=\"62\" r=\"4\" fill=\"#000\"/>\n"
            "<circle cx=\"118\" cy=\"84\" r=\"4\" fill=\"#000\"/>\n"
            "<line x1=\"144\" y1=\"40\" x2=\"144\" y2=\"62\" stroke=\"#000\" stroke-width=\"2\"/>\n"
            "<circle cx=\"144\" cy=\"40\" r=\"4\" fill=\"#000\"/>\n"
            "<circle cx=\"144\" cy=\"62\" r=\"4\" fill=\"#000\"/>\n"
            "<line x1=\"144\" y1=\"84\" x2=\"144\" y2=\"106\" stroke=\"#000\" stroke-width=\"2\"/>\n"
            "<circle cx=\"144\" cy=\"106\" r=\"4\" fill=\"#000\"/>\n"
            "<circle cx=\"144\" cy=\"84\" r=\"4\" fill=\"#000\"/>\n"
            "<text x=\"40\" y=\"162\" font-size=\"12\">bitonic4 — width=4 depth=3 gates=6 max_gate_width=2 widths{2:6}</text>\n"
            "</svg>\n");
}

TEST(Golden, K22DotContainsCanonicalEdges) {
  const std::string dot = to_dot(make_k_network({2, 2}), "g");
  // Single gate g0 fed by all four inputs and feeding all four outputs.
  for (int w = 0; w < 4; ++w) {
    EXPECT_NE(dot.find("in" + std::to_string(w) + " -> g0"),
              std::string::npos);
    EXPECT_NE(dot.find("g0 -> out" + std::to_string(w)), std::string::npos);
  }
}

}  // namespace
}  // namespace scn
