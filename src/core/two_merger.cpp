#include "core/two_merger.h"

#include <algorithm>
#include <cassert>

#include "core/module.h"
#include "seq/matrix_layout.h"

namespace scn {
namespace {

/// Physical wire at (row, col) of the combined p x (q0+q1) matrix: X0 fills
/// the left q0 columns in column-major order, X1 the right q1 columns in
/// reverse column-major order (paper Figure 11).
class CombinedMatrix {
 public:
  CombinedMatrix(std::span<const Wire> x0, std::span<const Wire> x1,
                 std::size_t p)
      : x0_(x0), x1_(x1), p_(p), q0_(x0.size() / p), q1_(x1.size() / p) {}

  [[nodiscard]] Wire at(std::size_t row, std::size_t col) const {
    if (col < q0_) {
      return x0_[layout_index(Layout::kColumnMajor, p_, q0_, row, col)];
    }
    return x1_[layout_index(Layout::kReverseColumnMajor, p_, q1_, row,
                            col - q0_)];
  }
  [[nodiscard]] std::size_t rows() const { return p_; }
  [[nodiscard]] std::size_t cols() const { return q0_ + q1_; }
  [[nodiscard]] std::size_t q0() const { return q0_; }
  [[nodiscard]] std::size_t q1() const { return q1_; }

 private:
  std::span<const Wire> x0_;
  std::span<const Wire> x1_;
  std::size_t p_, q0_, q1_;
};

/// Column balancers followed by the column-major output readout, shared by
/// the plain and capped variants. `cell` gives the (possibly re-labelled)
/// wire at each matrix position.
template <typename CellFn>
std::vector<Wire> balance_columns_and_emit(NetworkBuilder& builder,
                                           std::size_t rows, std::size_t cols,
                                           const CellFn& cell) {
  std::vector<Wire> col_wires(rows);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) col_wires[r] = cell(r, c);
    builder.add_balancer(col_wires);
  }
  std::vector<Wire> out(rows * cols);
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = cell(k % rows, k / rows);
  }
  return out;
}

/// The imperative gate-by-gate T(p, q0, q1) body: the module template
/// builder.
std::vector<Wire> two_merger_cold(NetworkBuilder& builder,
                                  std::span<const Wire> x0,
                                  std::span<const Wire> x1, std::size_t p) {
  const CombinedMatrix m(x0, x1, p);

  // Layer 1: a (q0+q1)-balancer across every row.
  std::vector<Wire> row_wires(m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) row_wires[c] = m.at(r, c);
    builder.add_balancer(row_wires);
  }
  // Layer 2 + column-major readout.
  return balance_columns_and_emit(
      builder, m.rows(), m.cols(),
      [&m](std::size_t r, std::size_t c) { return m.at(r, c); });
}

std::vector<Wire> two_merger_capped_cold(NetworkBuilder& builder,
                                         std::span<const Wire> x0,
                                         std::span<const Wire> x1,
                                         std::size_t p) {
  const CombinedMatrix m(x0, x1, p);
  assert(m.q0() == m.q1() && "capped substitution is defined for q0 == q1");
  const std::size_t q = m.q0();

  // Layer 1 substitute: each row's 2q-balancer becomes a T(q, 1, 1).
  // The left half of a row is a stride subsequence of the step input X0
  // (hence step); the right half, read right-to-left, is a stride
  // subsequence of X1 (hence step). T(q, 1, 1) merges them with balancers
  // of width 2 and q only. The merged step order is relabelled onto the row.
  std::vector<std::vector<Wire>> row(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    std::vector<Wire> left(q), right_reversed(q);
    for (std::size_t c = 0; c < q; ++c) left[c] = m.at(r, c);
    for (std::size_t c = 0; c < q; ++c) {
      right_reversed[c] = m.at(r, m.cols() - 1 - c);
    }
    row[r] = build_two_merger(builder, left, right_reversed, q);
  }
  return balance_columns_and_emit(
      builder, m.rows(), m.cols(),
      [&row](std::size_t r, std::size_t c) { return row[r][c]; });
}

/// Interns the canonical template (x0 on wires 0..p*q0-1, x1 on the rest)
/// and stamps it through the caller's logical span.
std::vector<Wire> stamp_two_merger(NetworkBuilder& builder,
                                   std::span<const Wire> x0,
                                   std::span<const Wire> x1, std::size_t p,
                                   bool capped) {
  if (x0.empty()) return {x1.begin(), x1.end()};
  if (x1.empty()) return {x0.begin(), x0.end()};
  assert(p >= 1);
  assert(x0.size() % p == 0 && x1.size() % p == 0);
  const ModuleKey key{
      .kind = capped ? ModuleKind::kTwoMergerCapped : ModuleKind::kTwoMerger,
      .params = {p, x0.size() / p, x1.size() / p}};
  std::vector<Wire> concat;
  concat.reserve(x0.size() + x1.size());
  concat.insert(concat.end(), x0.begin(), x0.end());
  concat.insert(concat.end(), x1.begin(), x1.end());
  const std::size_t n0 = x0.size();
  const auto cold = capped ? two_merger_capped_cold : two_merger_cold;
  return stamp_module(builder, key, concat,
                      [&](NetworkBuilder& b, std::span<const Wire> all) {
                        return cold(b, all.first(n0), all.subspan(n0), p);
                      });
}

}  // namespace

std::vector<Wire> build_two_merger(NetworkBuilder& builder,
                                   std::span<const Wire> x0,
                                   std::span<const Wire> x1, std::size_t p) {
  return stamp_two_merger(builder, x0, x1, p, /*capped=*/false);
}

std::vector<Wire> build_two_merger_capped(NetworkBuilder& builder,
                                          std::span<const Wire> x0,
                                          std::span<const Wire> x1,
                                          std::size_t p) {
  return stamp_two_merger(builder, x0, x1, p, /*capped=*/true);
}

Network make_two_merger_network(std::size_t p, std::size_t q0, std::size_t q1,
                                bool capped, Runtime& rt) {
  const std::size_t width = p * (q0 + q1);
  NetworkBuilder builder(width, &rt.module_cache());
  const std::vector<Wire> all = identity_order(width);
  const std::span<const Wire> x0(all.data(), p * q0);
  const std::span<const Wire> x1(all.data() + p * q0, p * q1);
  std::vector<Wire> out = capped
                              ? build_two_merger_capped(builder, x0, x1, p)
                              : build_two_merger(builder, x0, x1, p);
  return std::move(builder).finish(std::move(out));
}

}  // namespace scn
