#include "core/counting_network.h"

#include <cassert>

#include "core/factorization.h"
#include "core/merger.h"
#include "core/module.h"

namespace scn {
namespace {

/// The imperative C(p0..pn-1) induction (n >= 3): the module template
/// builder, and the direct path for custom bases. Sub-counters and the
/// merger go through the public (module-cached) entry points.
std::vector<Wire> counting_cold(NetworkBuilder& builder,
                                std::span<const Wire> wires,
                                std::span<const std::size_t> factors,
                                const BaseFactory& base,
                                StaircaseVariant variant) {
  const std::size_t n = factors.size();
  // p(n-1) copies of C(p0,...,p(n-2)) over consecutive chunks...
  const std::size_t p_last = factors[n - 1];
  const std::size_t chunk = wires.size() / p_last;
  std::vector<std::vector<Wire>> ys(p_last);
  for (std::size_t i = 0; i < p_last; ++i) {
    const std::span<const Wire> sub = wires.subspan(i * chunk, chunk);
    ys[i] = build_counting(builder, sub, factors.first(n - 1), base, variant);
  }
  // ...merged by M(p0,...,p(n-1)).
  return build_merger(builder, ys, factors, base, variant);
}

}  // namespace

std::vector<Wire> build_counting(NetworkBuilder& builder,
                                 std::span<const Wire> wires,
                                 std::span<const std::size_t> factors,
                                 const BaseFactory& base,
                                 StaircaseVariant variant) {
  const std::size_t n = factors.size();
  assert(n >= 1);
  assert(wires.size() == product(factors));

  if (n == 1) {
    builder.add_balancer(wires);
    return {wires.begin(), wires.end()};
  }
  if (n == 2) {
    return base(builder, wires, factors[0], factors[1]);
  }

  if (!base.cacheable()) {
    return counting_cold(builder, wires, factors, base, variant);
  }
  const ModuleKey key{.kind = ModuleKind::kCounting,
                      .base = static_cast<std::uint8_t>(base.kind()),
                      .variant = static_cast<std::uint8_t>(variant),
                      .params = {factors.begin(), factors.end()}};
  return stamp_module(builder, key, wires,
                      [&](NetworkBuilder& b, std::span<const Wire> all) {
                        return counting_cold(b, all, factors, base, variant);
                      });
}

Network make_counting_network(std::span<const std::size_t> factors,
                              const BaseFactory& base,
                              StaircaseVariant variant, Runtime& rt) {
  const std::size_t w = product(factors);
  NetworkBuilder builder(w, &rt.module_cache());
  const std::vector<Wire> all = identity_order(w);
  std::vector<Wire> out = build_counting(builder, all, factors, base, variant);
  return std::move(builder).finish(std::move(out));
}

}  // namespace scn
