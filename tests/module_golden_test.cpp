// Golden serialization hashes for every construction family, captured from
// the pre-Module-IR (purely recursive) builders. The Module IR must be
// *gate-for-gate* identical — same gates, same order, same layers, same
// output permutation — so the FNV-1a hash of serialize_network() is pinned
// exactly, and checked both with interning enabled (stamped path) and
// disabled (imperative path).
//
// Spec grammar (shared with the generator that produced the table):
//   K <f0xf1x...>                      make_k_network
//   L <f0xf1x...>                      make_l_network
//   R <p> <q>                          make_r_network
//   T <p> <q0> <q1>                    make_two_merger_network (plain)
//   Tc <p> <q> <q>                     make_two_merger_network (capped)
//   D <p> <q>                          make_bitonic_converter_network
//   S <base> <variant> <r> <p> <q>     make_staircase_merger_network
//   M <base> <variant> <f0xf1x...>     make_merger_network
//   C <base> <variant> <f0xf1x...>     make_counting_network
// base: bal | r       variant: tm | tmc | rc | rb
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/bitonic_converter.h"
#include "core/counting_network.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "core/merger.h"
#include "core/module.h"
#include "core/r_network.h"
#include "core/staircase_merger.h"
#include "core/two_merger.h"
#include "net/serialize.h"

namespace scn {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<std::size_t> parse_factors(const std::string& s) {
  std::vector<std::size_t> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, 'x')) out.push_back(std::stoul(item));
  return out;
}

StaircaseVariant parse_variant(const std::string& v) {
  if (v == "tm") return StaircaseVariant::kTwoMerger;
  if (v == "tmc") return StaircaseVariant::kTwoMergerCapped;
  if (v == "rc") return StaircaseVariant::kRebalanceCount;
  return StaircaseVariant::kRebalanceBitonic;
}

BaseFactory parse_base(const std::string& b) {
  return b == "r" ? r_network_base() : single_balancer_base();
}

Network build_spec(const std::string& spec) {
  std::stringstream ss(spec);
  std::string kind;
  ss >> kind;
  if (kind == "K" || kind == "L") {
    std::string f;
    ss >> f;
    const auto factors = parse_factors(f);
    return kind == "K" ? make_k_network(factors) : make_l_network(factors);
  }
  if (kind == "R") {
    std::size_t p = 0, q = 0;
    ss >> p >> q;
    return make_r_network(p, q);
  }
  if (kind == "T" || kind == "Tc") {
    std::size_t p = 0, q0 = 0, q1 = 0;
    ss >> p >> q0 >> q1;
    return make_two_merger_network(p, q0, q1, kind == "Tc");
  }
  if (kind == "D") {
    std::size_t p = 0, q = 0;
    ss >> p >> q;
    return make_bitonic_converter_network(p, q);
  }
  std::string base, variant;
  ss >> base >> variant;
  if (kind == "S") {
    std::size_t r = 0, p = 0, q = 0;
    ss >> r >> p >> q;
    return make_staircase_merger_network(r, p, q, parse_base(base),
                                         parse_variant(variant));
  }
  std::string f;
  ss >> f;
  const auto factors = parse_factors(f);
  if (kind == "M") {
    return make_merger_network(factors, parse_base(base),
                               parse_variant(variant));
  }
  return make_counting_network(factors, parse_base(base),
                               parse_variant(variant));
}

struct Golden {
  const char* spec;
  std::uint64_t hash;
};

// Test IDs print GetParam(); without this gtest dumps the spec pointer.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.spec; }

// Captured from the pre-refactor build (commit 17ec6b7 tree + planner PR).
constexpr Golden kGoldens[] = {
    {"K 2x2", 0x09b6f9528cd4ecc5ull},
    {"K 2x3", 0x0431c148fe82c6c1ull},
    {"K 3x3", 0xa05a78ad0f3256e4ull},
    {"K 2x3x2", 0x75206953e7f52292ull},
    {"K 4x3x5", 0x09fd1a9f99ec15e8ull},
    {"K 2x2x2x2", 0x19c3f52324c2c113ull},
    {"K 6x4", 0xa13012466aa5311dull},
    {"K 5x7", 0xa6b7d475534bf381ull},
    {"K 2x2x3x3", 0x92958e54d77a6e64ull},
    {"K 3x5x7", 0xd8f9a74aa966881dull},
    {"L 2x3", 0x70664c5b4082b339ull},
    {"L 2x3x2", 0x4b5a4866bf7792daull},
    {"L 4x3x5", 0x63f97482e7fd511bull},
    {"L 2x2x3x3", 0xfdab3d4336eb52c8ull},
    {"L 5x5", 0x94f3ed4012ca902full},
    {"L 3x4x3", 0x21d427f768ce6af4ull},
    {"L 7x4", 0x629e3df1ecc5f50dull},
    {"L 2x2x2x2x2", 0xc235727a79907a6full},
    {"R 2 2", 0xbfb6d67585889036ull},
    {"R 3 5", 0xe1aa0f048436aed4ull},
    {"R 4 4", 0x19c3f52324c2c113ull},
    {"R 5 7", 0xc7cebb2a7433259bull},
    {"R 6 10", 0x5b0cae40b7d9feb6ull},
    {"R 7 9", 0xe10775c4401bf4fbull},
    {"R 12 5", 0xddb634c39d7697c3ull},
    {"T 2 2 2", 0x003fc2fd42f14694ull},
    {"T 3 2 2", 0x55c603cc6eb78318ull},
    {"T 1 3 2", 0xf9bf39906e9ab310ull},
    {"T 4 3 1", 0xe49c96542f978b3bull},
    {"T 3 2 4", 0x63d36925c62ba0d3ull},
    {"T 5 1 1", 0xfaa9e6b8bf731cb7ull},
    {"Tc 3 2 2", 0xb6f988623242c127ull},
    {"Tc 2 3 3", 0x423737b0d700c07full},
    {"Tc 4 2 2", 0x481bae309c70f25bull},
    {"D 3 4", 0xcc19aafe0c2830e0ull},
    {"D 5 3", 0x2b553047acf48fc6ull},
    {"D 4 4", 0x0887b715556dcb31ull},
    {"D 2 7", 0x1bad3019a347cf97ull},
    {"D 1 5", 0xb78b16a301bb8a60ull},
    {"S bal rc 2 2 2", 0xc46a965195d73f52ull},
    {"S bal rb 3 2 3", 0x04598e0853917a79ull},
    {"S bal tm 3 4 3", 0x52e38590d42b1026ull},
    {"S bal tmc 3 4 3", 0x9771b5ffc622f346ull},
    {"S r rb 2 3 2", 0x00cd750cefc33ca7ull},
    {"S bal rc 4 2 5", 0xdb7271aac1537ef6ull},
    {"S r rc 3 2 2", 0x695a1afba7c2c3e9ull},
    {"M bal rc 2x3x2", 0xa4515a16a77162acull},
    {"M bal rb 3x2x4", 0xc0f980fd6b7dd57bull},
    {"M bal tm 2x2x3", 0xa52650848e0caa1dull},
    {"M bal tmc 2x2x3", 0x009fc62039ed7f5dull},
    {"M r rb 2x3x2", 0x473d48e82483c207ull},
    {"M bal rc 4x3x5", 0x2e48c51c743462d9ull},
    {"C bal rc 2x3x2", 0x75206953e7f52292ull},
    {"C bal rb 2x3x2", 0x5aebceb9c4862842ull},
    {"C bal tm 2x2x3", 0x920fac2aec41d0a0ull},
    {"C bal tmc 2x2x3", 0x89b0adfbc4acc7f0ull},
    {"C r rb 2x3x2", 0x4b5a4866bf7792daull},
    {"C bal rc 4x3x2", 0xe4f29688ea63cad1ull},
    {"C r rb 3x2x4", 0xf5ef4248f2697aeaull},
};

class ModuleGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(ModuleGolden, StampedBuildMatchesPreIRSerialization) {
  ScopedModuleCacheToggle on(true);
  const Network net = build_spec(GetParam().spec);
  EXPECT_TRUE(net.validate().empty()) << net.validate();
  EXPECT_EQ(fnv1a(serialize_network(net)), GetParam().hash)
      << "spec: " << GetParam().spec;
}

TEST_P(ModuleGolden, ImperativeBuildMatchesPreIRSerialization) {
  ScopedModuleCacheToggle off(false);
  const Network net = build_spec(GetParam().spec);
  EXPECT_TRUE(net.validate().empty()) << net.validate();
  EXPECT_EQ(fnv1a(serialize_network(net)), GetParam().hash)
      << "spec: " << GetParam().spec;
}

TEST_P(ModuleGolden, RepeatedStampedBuildsAreIdentical) {
  // Second build of the same spec rides pure cache hits; it must serialize
  // byte-for-byte like the first (no hidden state in the stamp path).
  ScopedModuleCacheToggle on(true);
  const std::string a = serialize_network(build_spec(GetParam().spec));
  const std::string b = serialize_network(build_spec(GetParam().spec));
  EXPECT_EQ(a, b) << "spec: " << GetParam().spec;
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ModuleGolden, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden>& param_info) {
      std::string name = param_info.param.spec;
      for (char& c : name) {
        if (c == ' ') c = '_';
      }
      return name;
    });

// Consistency identities observed at capture time: degenerate parameter
// choices collapse distinct constructions onto the same network.
TEST(ModuleGoldenCrossChecks, RDegeneratesToKOnSquareOfTwos) {
  // R(4, 4) routes every quadrant through pure K machinery.
  EXPECT_EQ(fnv1a(serialize_network(build_spec("R 4 4"))),
            fnv1a(serialize_network(build_spec("K 2x2x2x2"))));
}

TEST(ModuleGoldenCrossChecks, KIsCountingOverSingleBalancerBase) {
  EXPECT_EQ(fnv1a(serialize_network(build_spec("C bal rc 2x3x2"))),
            fnv1a(serialize_network(build_spec("K 2x3x2"))));
}

TEST(ModuleGoldenCrossChecks, LIsCountingOverRBase) {
  EXPECT_EQ(fnv1a(serialize_network(build_spec("C r rb 2x3x2"))),
            fnv1a(serialize_network(build_spec("L 2x3x2"))));
}

}  // namespace
}  // namespace scn
