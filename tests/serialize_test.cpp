// Text serialization: round-trips, hand-authored input, and every parse
// error path.
#include <gtest/gtest.h>

#include "core/k_network.h"
#include "core/l_network.h"
#include "net/serialize.h"
#include "sim/count_sim.h"
#include "verify/counting_verify.h"

namespace scn {
namespace {

void expect_same_network(const Network& a, const Network& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.gate_count(), b.gate_count());
  ASSERT_EQ(a.depth(), b.depth());
  for (std::size_t g = 0; g < a.gate_count(); ++g) {
    const auto wa = a.gate_wires(g);
    const auto wb = b.gate_wires(g);
    ASSERT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end()))
        << "gate " << g;
  }
  ASSERT_TRUE(std::equal(a.output_order().begin(), a.output_order().end(),
                         b.output_order().begin(), b.output_order().end()));
}

TEST(Serialize, RoundTripK) {
  const Network net = make_k_network({3, 2, 2});
  const ParseResult r = parse_network(serialize_network(net));
  ASSERT_TRUE(r.network.has_value()) << r.error;
  expect_same_network(net, *r.network);
}

TEST(Serialize, RoundTripLPreservesBehavior) {
  const Network net = make_l_network({2, 3, 2});
  const ParseResult r = parse_network(serialize_network(net));
  ASSERT_TRUE(r.network.has_value()) << r.error;
  // Same quiescent behavior on a skewed load.
  std::vector<Count> in(net.width(), 0);
  in[0] = 29;
  EXPECT_EQ(output_counts(net, in), output_counts(*r.network, in));
  EXPECT_TRUE(verify_counting(*r.network).ok);
}

TEST(Serialize, HandAuthoredWithCommentsAndBlankLines) {
  const std::string text = R"(# a width-4 toy
scnet 1
width 4

gate 0 1   # top pair
gate 2 3
gate 1 2
output 0 1 2 3
)";
  const ParseResult r = parse_network(text);
  ASSERT_TRUE(r.network.has_value()) << r.error;
  EXPECT_EQ(r.network->gate_count(), 3u);
  EXPECT_EQ(r.network->depth(), 2u);
}

TEST(Serialize, DefaultIdentityOutput) {
  const ParseResult r = parse_network("scnet 1\nwidth 2\ngate 0 1\n");
  ASSERT_TRUE(r.network.has_value()) << r.error;
  EXPECT_EQ(r.network->output_order()[0], 0);
  EXPECT_EQ(r.network->output_order()[1], 1);
}

struct BadCase {
  const char* name;
  const char* text;
};

// Test IDs print GetParam(); without this gtest dumps the two pointers.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class SerializeErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(SerializeErrors, Rejected) {
  const ParseResult r = parse_network(GetParam().text);
  EXPECT_FALSE(r.network.has_value());
  EXPECT_FALSE(r.error.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SerializeErrors,
    ::testing::Values(
        BadCase{"empty", ""},
        BadCase{"no_magic", "width 3\n"},
        BadCase{"bad_version", "scnet 2\nwidth 3\n"},
        BadCase{"no_width", "scnet 1\ngate 0 1\n"},
        BadCase{"dup_width", "scnet 1\nwidth 2\nwidth 2\n"},
        BadCase{"wire_range", "scnet 1\nwidth 2\ngate 0 2\n"},
        BadCase{"wire_dup", "scnet 1\nwidth 3\ngate 1 1\n"},
        BadCase{"gate_short", "scnet 1\nwidth 3\ngate 1\n"},
        BadCase{"gate_junk", "scnet 1\nwidth 3\ngate 0 x\n"},
        BadCase{"out_len", "scnet 1\nwidth 3\noutput 0 1\n"},
        BadCase{"out_dup", "scnet 1\nwidth 2\noutput 0 0\n"},
        BadCase{"out_range", "scnet 1\nwidth 2\noutput 0 5\n"},
        BadCase{"out_range_negative", "scnet 1\nwidth 2\noutput 0 -1\n"},
        BadCase{"out_range_far", "scnet 1\nwidth 2\noutput 0 1000000\n"},
        BadCase{"gate_after_output",
                "scnet 1\nwidth 2\noutput 0 1\ngate 0 1\n"},
        BadCase{"unknown", "scnet 1\nwidth 2\nfrobnicate\n"}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(Serialize, ErrorsCarryLineNumbers) {
  const ParseResult r = parse_network("scnet 1\nwidth 2\ngate 0 9\n");
  EXPECT_NE(r.error.find("line 3"), std::string::npos) << r.error;
}

}  // namespace
}  // namespace scn
