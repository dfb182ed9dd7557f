#include "core/merger.h"

#include <cassert>

#include "core/factorization.h"
#include "core/module.h"
#include "seq/sequence_props.h"

namespace scn {
namespace {

/// The imperative M(p0..pn-1) induction (n >= 3): the module template
/// builder, and the direct path for custom bases. Recursive sub-mergers
/// and the staircase combiner go through the public (module-cached) entry
/// points.
std::vector<Wire> merger_cold(NetworkBuilder& builder,
                              std::span<const std::vector<Wire>> inputs,
                              std::span<const std::size_t> factors,
                              const BaseFactory& base,
                              StaircaseVariant variant) {
  const std::size_t n = factors.size();
  const std::size_t p_last = factors[n - 1];

  // Recurse on (p0, ..., p(n-3), p(n-1)): p(n-2) copies, copy i fed the
  // stride subsequences X_j[i, p(n-2)].
  const std::size_t p_n2 = factors[n - 2];
  std::vector<std::size_t> sub_factors(factors.begin(), factors.end());
  sub_factors.erase(sub_factors.begin() + static_cast<long>(n) - 2);

  std::vector<std::vector<Wire>> ys(p_n2);
  for (std::size_t i = 0; i < p_n2; ++i) {
    std::vector<std::vector<Wire>> sub_inputs(p_last);
    for (std::size_t j = 0; j < p_last; ++j) {
      sub_inputs[j] = stride_subsequence_of<Wire>(inputs[j], i, p_n2);
    }
    ys[i] = build_merger(builder, sub_inputs, sub_factors, base, variant);
  }

  // S(w(n-3), p(n-1), p(n-2)) combines the staircase family Y_0..Y_{p(n-2)-1}.
  const std::size_t r = product(factors.first(n - 2));  // w(n-3)
  return build_staircase_merger(builder, ys, r, p_last, p_n2, base, variant);
}

}  // namespace

std::vector<Wire> build_merger(NetworkBuilder& builder,
                               std::span<const std::vector<Wire>> inputs,
                               std::span<const std::size_t> factors,
                               const BaseFactory& base,
                               StaircaseVariant variant) {
  const std::size_t n = factors.size();
  assert(n >= 2);
  const std::size_t p_last = factors[n - 1];
  assert(inputs.size() == p_last);
  const std::size_t in_len = product(factors.first(n - 1));
  for (const auto& in : inputs) {
    assert(in.size() == in_len);
    (void)in;
  }
  (void)in_len;

  if (n == 2) {
    // M(p0, p1) = C(p0, p1) on the concatenated inputs (the base interns
    // its own template when it is an R network).
    return base(builder, concat_wires(inputs), factors[0], p_last);
  }
  if (!base.cacheable()) {
    return merger_cold(builder, inputs, factors, base, variant);
  }
  // Canonical template: input i on wires [i*in_len, (i+1)*in_len) in order.
  const ModuleKey key{.kind = ModuleKind::kMerger,
                      .base = static_cast<std::uint8_t>(base.kind()),
                      .variant = static_cast<std::uint8_t>(variant),
                      .params = {factors.begin(), factors.end()}};
  return stamp_module(
      builder, key, concat_wires(inputs),
      [&](NetworkBuilder& b, std::span<const Wire> all) {
        return merger_cold(b, split_wires(all, p_last), factors, base,
                           variant);
      });
}

Network make_merger_network(std::span<const std::size_t> factors,
                            const BaseFactory& base, StaircaseVariant variant,
                            Runtime& rt) {
  const std::size_t w = product(factors);
  NetworkBuilder builder(w, &rt.module_cache());
  std::vector<Wire> out =
      build_merger(builder, split_wires(identity_order(w), factors.back()),
                   factors, base, variant);
  return std::move(builder).finish(std::move(out));
}

}  // namespace scn
