#include "core/bitonic_converter.h"

#include <cassert>

#include "core/module.h"
#include "seq/matrix_layout.h"

namespace scn {
namespace {

/// The imperative D(p, q) body: the module template builder.
std::vector<Wire> bitonic_converter_cold(NetworkBuilder& builder,
                                         std::span<const Wire> x,
                                         std::size_t p, std::size_t q) {
  auto cell = [&](std::size_t row, std::size_t col) {
    return x[layout_index(Layout::kColumnMajor, p, q, row, col)];
  };
  std::vector<Wire> row_wires(q);
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t c = 0; c < q; ++c) row_wires[c] = cell(r, c);
    builder.add_balancer(row_wires);
  }
  std::vector<Wire> col_wires(p);
  for (std::size_t c = 0; c < q; ++c) {
    for (std::size_t r = 0; r < p; ++r) col_wires[r] = cell(r, c);
    builder.add_balancer(col_wires);
  }
  std::vector<Wire> out(p * q);
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = cell(k % p, k / p);
  return out;
}

}  // namespace

std::vector<Wire> build_bitonic_converter(NetworkBuilder& builder,
                                          std::span<const Wire> x,
                                          std::size_t p, std::size_t q) {
  assert(p >= 1 && q >= 1);
  assert(x.size() == p * q);
  return stamp_module(
      builder, {.kind = ModuleKind::kBitonicConverter, .params = {p, q}}, x,
      [&](NetworkBuilder& b, std::span<const Wire> all) {
        return bitonic_converter_cold(b, all, p, q);
      });
}

Network make_bitonic_converter_network(std::size_t p, std::size_t q,
                                       Runtime& rt) {
  NetworkBuilder builder(p * q, &rt.module_cache());
  const std::vector<Wire> all = identity_order(p * q);
  std::vector<Wire> out = build_bitonic_converter(builder, all, p, q);
  return std::move(builder).finish(std::move(out));
}

}  // namespace scn
