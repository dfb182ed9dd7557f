// Independent, stage-wise verification of the paper's internal claims —
// the lemma-level reproduction. Each test rebuilds the relevant PREFIX of a
// construction from first principles (not by calling the library builders)
// and checks the intermediate state the proof asserts.
#include <gtest/gtest.h>

#include <random>

#include "net/network.h"
#include "seq/generators.h"
#include "seq/matrix_layout.h"
#include "sim/count_sim.h"
#include "verify/checkers.h"

namespace scn {
namespace {

// ---------------------------------------------------------------------
// Proposition 5 internals: in T(p, q0, q1), after the ROW layer alone the
// combined matrix has a single "mixed" column c: strictly higher constant
// value to the left, lower constant to the right, column c 1-smooth.
// ---------------------------------------------------------------------

TEST(Proposition5, AfterRowLayerOneMixedColumn) {
  std::mt19937_64 rng(1);
  const std::size_t p = 4, q0 = 3, q1 = 2, cols = q0 + q1;
  // Build ONLY the row layer over the paper's arrangement.
  NetworkBuilder b(p * cols);
  auto cell = [&](std::size_t r, std::size_t c) -> Wire {
    if (c < q0) {
      return static_cast<Wire>(
          layout_index(Layout::kColumnMajor, p, q0, r, c));
    }
    return static_cast<Wire>(
        p * q0 + layout_index(Layout::kReverseColumnMajor, p, q1, r, c - q0));
  };
  for (std::size_t r = 0; r < p; ++r) {
    std::vector<Wire> row;
    for (std::size_t c = 0; c < cols; ++c) row.push_back(cell(r, c));
    b.add_balancer(row);
  }
  const Network rows_only = std::move(b).finish_identity();

  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Count> in;
    const auto x0 = random_step_sequence(rng, p * q0, 60);
    const auto x1 = random_step_sequence(rng, p * q1, 60);
    in.insert(in.end(), x0.begin(), x0.end());
    in.insert(in.end(), x1.begin(), x1.end());
    const auto phys = propagate_counts(rows_only, in);

    // Column classification.
    std::size_t mixed_columns = 0;
    std::vector<Count> col_min(cols), col_max(cols);
    for (std::size_t c = 0; c < cols; ++c) {
      Count mn = phys[static_cast<std::size_t>(cell(0, c))];
      Count mx = mn;
      for (std::size_t r = 1; r < p; ++r) {
        const Count v = phys[static_cast<std::size_t>(cell(r, c))];
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
      col_min[c] = mn;
      col_max[c] = mx;
      if (mn != mx) {
        ++mixed_columns;
        ASSERT_LE(mx - mn, 1) << "mixed column not 1-smooth";
      }
    }
    ASSERT_LE(mixed_columns, 1u);
    // Left-to-right, column extremes never increase.
    for (std::size_t c = 0; c + 1 < cols; ++c) {
      ASSERT_GE(col_min[c], col_max[c + 1]) << "columns out of order";
    }
  }
}

// ---------------------------------------------------------------------
// Proposition 2: if every X_j has the step property, the stride-split
// sums satisfy the p(n-1)-staircase property. (Checked on sequences, no
// network involved — this is the exact statement of the proof.)
// ---------------------------------------------------------------------

TEST(Proposition2, StrideSplitSumsFormStaircase) {
  std::mt19937_64 rng(2);
  for (int trial = 0; trial < 500; ++trial) {
    std::uniform_int_distribution<std::size_t> dq(2, 5);
    const std::size_t stride = dq(rng);   // p(n-2)
    const std::size_t seqs = dq(rng);     // p(n-1)
    const std::size_t len = stride * dq(rng) * 2;
    std::vector<std::vector<Count>> xs;
    for (std::size_t j = 0; j < seqs; ++j) {
      xs.push_back(random_step_sequence(rng, len, 100));
    }
    std::vector<std::vector<Count>> y_sums(stride);
    for (std::size_t i = 0; i < stride; ++i) {
      Count s = 0;
      for (const auto& x : xs) {
        for (const Count v : stride_subsequence(x, i, stride)) s += v;
      }
      y_sums[i] = {s};
    }
    ASSERT_TRUE(has_staircase_property(y_sums, static_cast<Count>(seqs)));
  }
}

// ---------------------------------------------------------------------
// Proposition 4: in the optimized staircase-merger, after the block
// C(p, q) layer and the exchange layer ℓ, the residual discrepancy spans
// AT MOST ONE block and that block is bitonic.
// ---------------------------------------------------------------------

class Proposition4
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t>> {};

TEST_P(Proposition4, AfterExchangeLayerOneBitonicBlock) {
  const auto [r, p, q] = GetParam();
  const std::size_t pq = p * q;
  const std::size_t s = pq / 2;
  // Independent rebuild of: block single-balancer (the K-style C(p, q)
  // base) + exchange layer ℓ, with the matrix-north-first orientation.
  NetworkBuilder b(r * pq);
  std::vector<std::vector<Wire>> blocks(r);
  for (std::size_t k = 0; k < r; ++k) {
    for (std::size_t a = 0; a < p; ++a) {
      for (std::size_t c = 0; c < q; ++c) {
        // column c = input sequence c on wires [c*r*p, (c+1)*r*p).
        blocks[k].push_back(static_cast<Wire>(c * r * p + k * p + a));
      }
    }
    b.add_balancer(blocks[k]);
  }
  for (std::size_t k = 0; k < r; ++k) {
    const std::size_t nxt = (k + 1) % r;
    for (std::size_t j = 0; j < s; ++j) {
      const Wire south = blocks[k][pq - s + j];
      const Wire north = blocks[nxt][s - 1 - j];
      if (nxt == 0) {
        b.add_balancer({north, south});
      } else {
        b.add_balancer({south, north});
      }
    }
  }
  const Network prefix = std::move(b).finish_identity();

  std::mt19937_64 rng(17 + r + p + q);
  for (int trial = 0; trial < 400; ++trial) {
    const auto family = random_staircase_family(
        rng, q, r * p, static_cast<Count>(p), static_cast<Count>(4 * r * p));
    std::vector<Count> in;
    for (const auto& x : family) in.insert(in.end(), x.begin(), x.end());
    const auto phys = propagate_counts(prefix, in);

    std::size_t nonconstant_blocks = 0;
    for (std::size_t k = 0; k < r; ++k) {
      std::vector<Count> block_vals;
      for (const Wire w : blocks[k]) {
        block_vals.push_back(phys[static_cast<std::size_t>(w)]);
      }
      if (transition_count(block_vals) > 0) {
        ++nonconstant_blocks;
        ASSERT_TRUE(has_bitonic_property(block_vals))
            << "block " << k << ": " << format_sequence(block_vals);
      }
    }
    ASSERT_LE(nonconstant_blocks, 1u)
        << "discrepancy not confined to one block";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Proposition4,
    ::testing::Values(std::make_tuple(2u, 2u, 2u), std::make_tuple(3u, 2u, 2u),
                      std::make_tuple(4u, 3u, 3u), std::make_tuple(5u, 2u, 3u),
                      std::make_tuple(3u, 3u, 2u),
                      std::make_tuple(6u, 2u, 2u)));

// ---------------------------------------------------------------------
// §4.3 preliminary claim: because the inputs satisfy the p-staircase
// property and each is step, the column step points lie within p of one
// another (mod r*p) — equivalently, after stepping each block, values
// differ only within two cyclically adjacent blocks.
// ---------------------------------------------------------------------

TEST(StaircaseGeometry, BlockValuesSpanAtMostTwoAdjacentBlocks) {
  std::mt19937_64 rng(23);
  const std::size_t r = 4, p = 3, q = 3, rp = r * p;
  for (int trial = 0; trial < 400; ++trial) {
    const auto family = random_staircase_family(
        rng, q, rp, static_cast<Count>(p), static_cast<Count>(3 * rp));
    // Block totals -> values after a per-block counting network are
    // step_sequence(p*q, total); the block is non-constant iff total is
    // not a multiple of p*q.
    std::size_t nonconstant = 0;
    std::vector<std::size_t> nonconstant_ids;
    for (std::size_t k = 0; k < r; ++k) {
      Count total = 0;
      for (std::size_t c = 0; c < q; ++c) {
        for (std::size_t a = 0; a < p; ++a) total += family[c][k * p + a];
      }
      if (total % static_cast<Count>(p * q) != 0) {
        ++nonconstant;
        nonconstant_ids.push_back(k);
      }
    }
    ASSERT_LE(nonconstant, 2u);
    if (nonconstant == 2) {
      const std::size_t a = nonconstant_ids[0], c = nonconstant_ids[1];
      const bool adjacent = (c == a + 1) || (a == 0 && c == r - 1);
      ASSERT_TRUE(adjacent) << a << "," << c;
    }
  }
}

}  // namespace
}  // namespace scn
