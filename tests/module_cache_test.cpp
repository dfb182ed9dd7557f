// Unit tests for the Module IR machinery itself: the stamp primitive on
// NetworkBuilder, the interning table (identity, stats, clearing), and the
// cacheability rules for base factories.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/base_factory.h"
#include "core/counting_network.h"
#include "core/l_network.h"
#include "core/module.h"
#include "core/r_network.h"
#include "core/two_merger.h"
#include "net/serialize.h"
#include "net/transform.h"

namespace scn {
namespace {

Network two_gate_template() {
  // Canonical 4-wire template: balancer on {0,1,2}, then {2,3}; output
  // order reversed so stamping must compose permutations, not copy them.
  NetworkBuilder b(4);
  b.add_balancer({Wire{0}, Wire{1}, Wire{2}});
  b.add_balancer({Wire{2}, Wire{3}});
  return std::move(b).finish({Wire{3}, Wire{2}, Wire{1}, Wire{0}});
}

TEST(Stamp, IdentityRelocationReplaysTheTemplate) {
  const Network tmpl = two_gate_template();
  NetworkBuilder b(4);
  const std::vector<Wire> out = b.stamp(tmpl, identity_order(4));
  const Network net = std::move(b).finish(std::vector<Wire>(out));
  EXPECT_TRUE(net.validate().empty()) << net.validate();
  EXPECT_EQ(serialize_network(net), serialize_network(tmpl));
}

TEST(Stamp, RelocatesWiresAndComposesOutputOrder) {
  const Network tmpl = two_gate_template();
  // Stamp into the top half of an 8-wire builder through a permuted span.
  NetworkBuilder b(8);
  const std::vector<Wire> span = {Wire{6}, Wire{4}, Wire{7}, Wire{5}};
  const std::vector<Wire> out = b.stamp(tmpl, span);
  // out[i] = span[tmpl.output_order()[i]] = span[{3,2,1,0}[i]].
  EXPECT_EQ(out, (std::vector<Wire>{Wire{5}, Wire{7}, Wire{4}, Wire{6}}));
  const Network net = std::move(b).finish_identity();
  ASSERT_EQ(net.gate_count(), 2u);
  EXPECT_EQ(std::vector<Wire>(net.gate_wires(0).begin(),
                              net.gate_wires(0).end()),
            (std::vector<Wire>{Wire{6}, Wire{4}, Wire{7}}));
  EXPECT_EQ(std::vector<Wire>(net.gate_wires(1).begin(),
                              net.gate_wires(1).end()),
            (std::vector<Wire>{Wire{7}, Wire{5}}));
  EXPECT_TRUE(net.validate().empty()) << net.validate();
}

TEST(Stamp, LayersRecomputeAgainstPriorGates) {
  const Network tmpl = two_gate_template();
  NetworkBuilder b(4);
  b.add_balancer({Wire{0}, Wire{1}});  // layer 1 on wires 0, 1
  (void)b.stamp(tmpl, identity_order(4));
  const Network net = std::move(b).finish_identity();
  ASSERT_EQ(net.gate_count(), 3u);
  // Stamped {0,1,2} lands after the existing gate; stamped {2,3} after it.
  EXPECT_EQ(net.gates()[1].layer, 2u);
  EXPECT_EQ(net.gates()[2].layer, 3u);
  EXPECT_EQ(net.depth(), 3u);
  EXPECT_TRUE(net.validate().empty()) << net.validate();
}

TEST(Stamp, MatchesGateByGateRebuildOnRealModule) {
  // The constructors are equivariant under wire relabeling: stamping
  // R(3, 5)'s interned template over a permutation must emit the same
  // gates in the same order, and the same logical output order, as
  // relabeling the identity-wire R(3, 5) through that permutation.
  const std::vector<Wire> order = {Wire{7},  Wire{2}, Wire{11}, Wire{0},
                                   Wire{14}, Wire{5}, Wire{9},  Wire{3},
                                   Wire{12}, Wire{1}, Wire{13}, Wire{4},
                                   Wire{10}, Wire{6}, Wire{8}};
  NetworkBuilder b(15);
  auto out = build_r_network(b, order, 3, 5);
  const Network stamped = std::move(b).finish(std::move(out));
  const Network relabeled = relabel(make_r_network(3, 5), order);
  EXPECT_EQ(serialize_network(stamped), serialize_network(relabeled));
  EXPECT_TRUE(std::ranges::equal(stamped.output_order(),
                                 relabeled.output_order()));
}

TEST(Stamp, ChecksRejectBadSpans) {
  if (!builder_checks_enabled()) {
    GTEST_SKIP() << "library built without SCNET_CHECKED";
  }
  const Network tmpl = two_gate_template();
  NetworkBuilder b(4);
  const std::vector<Wire> short_span = {Wire{0}, Wire{1}, Wire{2}};
  EXPECT_THROW((void)b.stamp(tmpl, short_span), std::invalid_argument);
  const std::vector<Wire> dup = {Wire{0}, Wire{1}, Wire{1}, Wire{3}};
  EXPECT_THROW((void)b.stamp(tmpl, dup), std::invalid_argument);
  const std::vector<Wire> oob = {Wire{0}, Wire{1}, Wire{2}, Wire{4}};
  EXPECT_THROW((void)b.stamp(tmpl, oob), std::invalid_argument);
  EXPECT_EQ(b.gate_count(), 0u);
}

TEST(ModuleCacheTest, InternReturnsTheSameTemplateForTheSameKey) {
  ModuleCache cache;
  const ModuleKey key{.kind = ModuleKind::kRNetwork, .params = {3, 5}};
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return make_r_network(3, 5);
  };
  const auto a = cache.intern(key, build);
  const auto b = cache.intern(key, build);
  EXPECT_EQ(a.get(), b.get()) << "same key must intern to one template";
  EXPECT_EQ(builds, 1);
  const ModuleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, network_storage_bytes(*a));
}

TEST(ModuleCacheTest, DistinctKeysInternSeparately) {
  ModuleCache cache;
  const auto a = cache.intern(
      ModuleKey{.kind = ModuleKind::kRNetwork, .params = {3, 5}},
      [] { return make_r_network(3, 5); });
  const auto b = cache.intern(
      ModuleKey{.kind = ModuleKind::kRNetwork, .params = {5, 3}},
      [] { return make_r_network(5, 3); });
  EXPECT_NE(a.get(), b.get());
  const auto c = cache.intern(
      ModuleKey{.kind = ModuleKind::kTwoMerger, .params = {3, 5}},
      [] { return make_two_merger_network(3, 5, 5); });
  EXPECT_NE(a.get(), c.get()) << "kind participates in the key";
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(ModuleCacheTest, ClearDropsEntriesButNotLiveTemplates) {
  ModuleCache cache;
  const ModuleKey key{.kind = ModuleKind::kRNetwork, .params = {2, 2}};
  const auto held = cache.intern(key, [] { return make_r_network(2, 2); });
  cache.clear();
  const ModuleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  // The caller's shared_ptr keeps the evicted template alive.
  EXPECT_EQ(held->width(), 4u);
  // Re-interning rebuilds (a fresh miss), yielding an equal network.
  const auto again = cache.intern(key, [] { return make_r_network(2, 2); });
  EXPECT_EQ(serialize_network(*again), serialize_network(*held));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ModuleCacheTest, SharedCacheCountsLNetworkReuse) {
  ModuleCache::shared().clear();
  const Network first = make_l_network({3, 4, 3});
  const ModuleCacheStats cold = ModuleCache::shared().stats();
  EXPECT_GT(cold.misses, 0u);
  EXPECT_EQ(cold.entries, cold.misses);
  const Network second = make_l_network({3, 4, 3});
  const ModuleCacheStats warm = ModuleCache::shared().stats();
  EXPECT_EQ(warm.misses, cold.misses) << "second build must be all hits";
  EXPECT_GT(warm.hits, cold.hits);
  EXPECT_EQ(serialize_network(first), serialize_network(second));
}

TEST(ModuleCacheTest, KnownBasesAreCacheableCustomBasesAreNot) {
  EXPECT_TRUE(single_balancer_base().cacheable());
  EXPECT_EQ(single_balancer_base().kind(), BaseKind::kSingleBalancer);
  EXPECT_TRUE(r_network_base().cacheable());
  EXPECT_EQ(r_network_base().kind(), BaseKind::kRNetwork);
  const BaseFactory custom = [](NetworkBuilder& b, std::span<const Wire> w,
                                std::size_t, std::size_t) {
    b.add_balancer(w);
    return std::vector<Wire>(w.begin(), w.end());
  };
  EXPECT_FALSE(custom.cacheable());
  EXPECT_EQ(custom.kind(), BaseKind::kCustom);
}

TEST(ModuleCacheTest, CustomBaseBypassesTheCacheButStillBuilds) {
  ModuleCache::shared().clear();
  const BaseFactory custom = [](NetworkBuilder& b, std::span<const Wire> w,
                                std::size_t, std::size_t) {
    b.add_balancer(w);
    return std::vector<Wire>(w.begin(), w.end());
  };
  const Network net = make_counting_network(
      std::vector<std::size_t>{2, 3, 2}, custom,
      StaircaseVariant::kRebalanceCount);
  EXPECT_TRUE(net.validate().empty()) << net.validate();
  // A custom base makes C (and the S/M sub-modules that embed the base)
  // uncacheable — their imperative paths run every time — while the
  // base-independent sub-modules (T, D) still intern. So a second build
  // adds no new entries (everything internable was interned the first
  // time) yet the network still comes out whole.
  const ModuleCacheStats after_first = ModuleCache::shared().stats();
  const Network net2 = make_counting_network(
      std::vector<std::size_t>{2, 3, 2}, custom,
      StaircaseVariant::kRebalanceCount);
  EXPECT_EQ(ModuleCache::shared().stats().entries, after_first.entries);
  EXPECT_EQ(serialize_network(net), serialize_network(net2));
  // Equivalent to the single-balancer base by construction.
  const Network reference = make_counting_network(
      std::vector<std::size_t>{2, 3, 2}, single_balancer_base(),
      StaircaseVariant::kRebalanceCount);
  EXPECT_EQ(serialize_network(net), serialize_network(reference));
}

TEST(ModuleCacheTest, NetworkStorageBytesGrowsWithTheNetwork) {
  const Network small = make_r_network(2, 2);
  const Network large = make_l_network({4, 5, 7});
  EXPECT_GT(network_storage_bytes(small), 0u);
  EXPECT_GT(network_storage_bytes(large), network_storage_bytes(small));
}

TEST(ModuleCacheTest, ToStringCoversAllKinds) {
  EXPECT_STREQ(to_string(ModuleKind::kTwoMerger), "T");
  EXPECT_STREQ(to_string(ModuleKind::kTwoMergerCapped), "Tc");
  EXPECT_STREQ(to_string(ModuleKind::kBitonicConverter), "D");
  EXPECT_STREQ(to_string(ModuleKind::kStaircaseMerger), "S");
  EXPECT_STREQ(to_string(ModuleKind::kMerger), "M");
  EXPECT_STREQ(to_string(ModuleKind::kCounting), "C");
  EXPECT_STREQ(to_string(ModuleKind::kRNetwork), "R");
}

}  // namespace
}  // namespace scn
