#include "core/r_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/k_network.h"
#include "core/module.h"
#include "core/two_merger.h"

namespace scn {
namespace {

/// Steps a rectangular quadrant of shape (sq*sq) x cnt (B with sq = p̂,
/// cnt = q̄; C with sq = q̂, cnt = p̄): split the cnt extent in half, count
/// each part with a 3-factor K, merge with T(sq², cnt0, cnt1).
std::vector<Wire> step_rect(NetworkBuilder& builder,
                            std::span<const Wire> region, std::size_t sq,
                            std::size_t cnt) {
  if (cnt == 0) return {};
  assert(region.size() == sq * sq * cnt);
  if (cnt == 1) {
    const std::size_t factors[] = {sq, sq};
    return build_k_network(builder, region, factors);
  }
  const std::size_t c0 = cnt / 2;
  const std::size_t c1 = cnt - c0;
  const std::size_t f0[] = {c0, sq, sq};
  const std::size_t f1[] = {c1, sq, sq};
  const std::vector<Wire> b0 =
      build_k_network(builder, region.first(sq * sq * c0), f0);
  const std::vector<Wire> b1 =
      build_k_network(builder, region.subspan(sq * sq * c0), f1);
  return build_two_merger(builder, b0, b1, sq * sq);
}

/// Steps the D quadrant (p̄ x q̄): four single balancers on the quarters,
/// merged by T(p̄0, q̄0, q̄1), T(p̄1, q̄0, q̄1), then T(q̄, p̄0, p̄1).
std::vector<Wire> step_d(NetworkBuilder& builder, std::span<const Wire> region,
                         std::size_t rp, std::size_t rq) {
  if (rp == 0 || rq == 0) return {};
  assert(region.size() == rp * rq);
  const std::size_t p0 = rp / 2, p1 = rp - p0;
  const std::size_t q0 = rq / 2, q1 = rq - q0;
  auto stepify = [&](std::span<const Wire> chunk) -> std::vector<Wire> {
    builder.add_balancer(chunk);
    return {chunk.begin(), chunk.end()};
  };
  std::size_t at = 0;
  auto take = [&](std::size_t len) {
    const auto chunk = region.subspan(at, len);
    at += len;
    return chunk;
  };
  const std::vector<Wire> d0 = stepify(take(p0 * q0));
  const std::vector<Wire> d1 = stepify(take(p0 * q1));
  const std::vector<Wire> d2 = stepify(take(p1 * q0));
  const std::vector<Wire> d3 = stepify(take(p1 * q1));
  assert(at == region.size());
  const std::vector<Wire> d01 = build_two_merger(builder, d0, d1, p0);
  const std::vector<Wire> d23 = build_two_merger(builder, d2, d3, p1);
  return build_two_merger(builder, d01, d23, rq);
}

/// The imperative R(p, q) quadrant construction: the module template
/// builder.
std::vector<Wire> r_network_cold(NetworkBuilder& builder,
                                 std::span<const Wire> wires, std::size_t p,
                                 std::size_t q) {
  const std::size_t hp = integer_sqrt(p), rp = p - hp * hp;
  const std::size_t hq = integer_sqrt(q), rq = q - hq * hq;

  // Row-major quadrant extraction from the p x q matrix wires[row*q + col].
  auto region = [&](std::size_t r0, std::size_t r1, std::size_t c0,
                    std::size_t c1) {
    std::vector<Wire> v;
    v.reserve((r1 - r0) * (c1 - c0));
    for (std::size_t r = r0; r < r1; ++r) {
      for (std::size_t c = c0; c < c1; ++c) v.push_back(wires[r * q + c]);
    }
    return v;
  };

  const std::vector<Wire> quad_a = region(0, hp * hp, 0, hq * hq);
  const std::vector<Wire> quad_b = region(0, hp * hp, hq * hq, q);
  const std::vector<Wire> quad_c = region(hp * hp, p, 0, hq * hq);
  const std::vector<Wire> quad_d = region(hp * hp, p, hq * hq, q);

  const std::size_t fa[] = {hp, hp, hq, hq};
  const std::vector<Wire> a_step = build_k_network(builder, quad_a, fa);
  const std::vector<Wire> b_step = step_rect(builder, quad_b, hp, rq);
  const std::vector<Wire> c_step = step_rect(builder, quad_c, hq, rp);
  const std::vector<Wire> d_step = step_d(builder, quad_d, rp, rq);

  // T(p̂², q̂², q̄) merges A and B; T(p̄, q̂², q̄) merges C and D;
  // T(q, p̂², p̄) merges the halves. Row balancer widths: q̂²+q̄ = q and
  // p̂²+p̄ = p; column widths p̂², p̄, q — all <= max(p, q).
  const std::vector<Wire> ab =
      build_two_merger(builder, a_step, b_step, hp * hp);
  const std::vector<Wire> cd = build_two_merger(builder, c_step, d_step, rp);
  return build_two_merger(builder, ab, cd, q);
}

}  // namespace

std::size_t integer_sqrt(std::size_t x) {
  auto r = static_cast<std::size_t>(std::sqrt(static_cast<double>(x)));
  while (r * r > x) --r;
  while ((r + 1) * (r + 1) <= x) ++r;
  return r;
}

std::vector<Wire> build_r_network(NetworkBuilder& builder,
                                  std::span<const Wire> wires, std::size_t p,
                                  std::size_t q) {
  assert(p >= 2 && q >= 2);
  assert(wires.size() == p * q);
  return stamp_module(
      builder, {.kind = ModuleKind::kRNetwork, .params = {p, q}}, wires,
      [&](NetworkBuilder& b, std::span<const Wire> all) {
        return r_network_cold(b, all, p, q);
      });
}

Network make_r_network(std::size_t p, std::size_t q, Runtime& rt) {
  NetworkBuilder builder(p * q, &rt.module_cache());
  const std::vector<Wire> all = identity_order(p * q);
  std::vector<Wire> out = build_r_network(builder, all, p, q);
  return std::move(builder).finish(std::move(out));
}

}  // namespace scn
