#include "core/staircase_merger.h"

#include <cassert>

#include "core/bitonic_converter.h"
#include "core/module.h"
#include "core/two_merger.h"

namespace scn {
namespace {

using Blocks = std::vector<std::vector<Wire>>;

/// Initial block orders: block k holds matrix rows [k*p, (k+1)*p) of the
/// (r*p) x q matrix whose column i is inputs[i]; within a block the sequence
/// order is row major (paper Figure 9(c)).
Blocks initial_blocks(std::span<const std::vector<Wire>> inputs, std::size_t r,
                      std::size_t p, std::size_t q) {
  Blocks blocks(r, std::vector<Wire>(p * q));
  for (std::size_t k = 0; k < r; ++k) {
    for (std::size_t a = 0; a < p; ++a) {
      for (std::size_t c = 0; c < q; ++c) {
        blocks[k][a * q + c] = inputs[c][k * p + a];
      }
    }
  }
  return blocks;
}

/// Merges blocks[lo] (globally first) and blocks[hi] with a two-merger and
/// writes the step halves back.
void merge_blocks(NetworkBuilder& builder, Blocks& blocks, std::size_t lo,
                  std::size_t hi, std::size_t p, bool capped) {
  const std::size_t half = blocks[lo].size();
  std::vector<Wire> merged =
      capped ? build_two_merger_capped(builder, blocks[lo], blocks[hi], p)
             : build_two_merger(builder, blocks[lo], blocks[hi], p);
  assert(merged.size() == 2 * half);
  blocks[lo].assign(merged.begin(), merged.begin() + static_cast<long>(half));
  blocks[hi].assign(merged.begin() + static_cast<long>(half), merged.end());
}

/// The imperative S(r, p, q) body: the module template builder, and the
/// direct path for custom bases.
std::vector<Wire> staircase_merger_cold(
    NetworkBuilder& builder, std::span<const std::vector<Wire>> inputs,
    std::size_t r, std::size_t p, std::size_t q, const BaseFactory& base,
    StaircaseVariant variant) {
  const std::size_t pq = p * q;
  Blocks blocks = initial_blocks(inputs, r, p, q);

  // Stage 1: make every block step with C(p, q).
  for (auto& blk : blocks) {
    blk = base(builder, blk, p, q);
    assert(blk.size() == pq);
  }

  switch (variant) {
    case StaircaseVariant::kTwoMerger:
    case StaircaseVariant::kTwoMergerCapped: {
      const bool capped = variant == StaircaseVariant::kTwoMergerCapped;
      // Layer 1: pairs (A_{2i}, A_{2i+1}).
      for (std::size_t k = 0; k + 1 < r; k += 2) {
        merge_blocks(builder, blocks, k, k + 1, p, capped);
      }
      // Layer 2: pairs (A_{2i+1}, A_{(2i+2) mod r}); the wrap pair keeps A_0
      // globally first.
      for (std::size_t k = 1; k < r; k += 2) {
        const std::size_t nxt = (k + 1) % r;
        if (nxt == 0) {
          merge_blocks(builder, blocks, 0, k, p, capped);
        } else {
          merge_blocks(builder, blocks, k, nxt, p, capped);
        }
      }
      // Layer 3 (r odd): the wrap pair (A_0, A_{r-1}).
      if (r % 2 == 1) {
        merge_blocks(builder, blocks, 0, r - 1, p, capped);
      }
      break;
    }
    case StaircaseVariant::kRebalanceCount:
    case StaircaseVariant::kRebalanceBitonic: {
      // Exchange layer ℓ (§4.3.1): for every cyclically adjacent pair
      // (A_k, A_{k+1 mod r}) connect the j-th element of A_k's last-half to
      // the (s-1-j)-th element of A_{k+1}'s first-half. Each balancer lists
      // the matrix-north element first (for the wrap pair that is the A_0
      // element), so the larger share of tokens stays on the upper block.
      const std::size_t s = pq / 2;
      for (std::size_t k = 0; k < r; ++k) {
        const std::size_t nxt = (k + 1) % r;
        for (std::size_t j = 0; j < s; ++j) {
          const Wire lower_of_k = blocks[k][pq - s + j];
          const Wire upper_of_next = blocks[nxt][s - 1 - j];
          if (nxt != 0) {
            builder.add_balancer({lower_of_k, upper_of_next});
          } else {
            builder.add_balancer({upper_of_next, lower_of_k});
          }
        }
      }
      // Fix the residual (bitonic, single-block) discrepancy.
      for (auto& blk : blocks) {
        if (variant == StaircaseVariant::kRebalanceCount) {
          blk = base(builder, blk, p, q);
        } else {
          blk = build_bitonic_converter(builder, blk, p, q);
        }
        assert(blk.size() == pq);
      }
      break;
    }
  }

  // Output: blocks in order, each in its step order (row-major of A).
  std::vector<Wire> out;
  out.reserve(r * pq);
  for (const auto& blk : blocks) out.insert(out.end(), blk.begin(), blk.end());
  return out;
}

}  // namespace

const char* to_string(StaircaseVariant v) {
  switch (v) {
    case StaircaseVariant::kTwoMerger:
      return "two-merger";
    case StaircaseVariant::kTwoMergerCapped:
      return "two-merger-capped";
    case StaircaseVariant::kRebalanceCount:
      return "rebalance-count";
    case StaircaseVariant::kRebalanceBitonic:
      return "rebalance-bitonic";
  }
  return "?";
}

std::size_t staircase_depth_formula(StaircaseVariant v, std::size_t d,
                                    std::size_t r) {
  // Two-merger layers: even pairs + odd pairs, plus the extra wrap layer
  // when r is odd. Each T is depth 2 (3 when capped).
  const std::size_t t_layers = (r % 2 == 1) ? 3 : 2;
  switch (v) {
    case StaircaseVariant::kTwoMerger:
      return d + 2 * t_layers;  // <= d + 6 (paper)
    case StaircaseVariant::kTwoMergerCapped:
      return d + 3 * t_layers;  // <= d + 9 (paper)
    case StaircaseVariant::kRebalanceCount:
      return 2 * d + 1;
    case StaircaseVariant::kRebalanceBitonic:
      return d + 3;
  }
  return 0;
}

std::vector<Wire> build_staircase_merger(NetworkBuilder& builder,
                                         std::span<const std::vector<Wire>> inputs,
                                         std::size_t r, std::size_t p,
                                         std::size_t q, const BaseFactory& base,
                                         StaircaseVariant variant) {
  assert(r >= 2 && p >= 2 && q >= 2);
  assert(inputs.size() == q);
  for (const auto& in : inputs) {
    assert(in.size() == r * p);
    (void)in;
  }
  if (!base.cacheable()) {
    return staircase_merger_cold(builder, inputs, r, p, q, base, variant);
  }
  // Canonical template: input i on wires [i*r*p, (i+1)*r*p) in order.
  const ModuleKey key{.kind = ModuleKind::kStaircaseMerger,
                      .base = static_cast<std::uint8_t>(base.kind()),
                      .variant = static_cast<std::uint8_t>(variant),
                      .params = {r, p, q}};
  return stamp_module(
      builder, key, concat_wires(inputs),
      [&](NetworkBuilder& b, std::span<const Wire> all) {
        return staircase_merger_cold(b, split_wires(all, q), r, p, q, base,
                                     variant);
      });
}

Network make_staircase_merger_network(std::size_t r, std::size_t p,
                                      std::size_t q, const BaseFactory& base,
                                      StaircaseVariant variant, Runtime& rt) {
  const std::size_t width = r * p * q;
  NetworkBuilder builder(width, &rt.module_cache());
  std::vector<Wire> out = build_staircase_merger(
      builder, split_wires(identity_order(width), q), r, p, q, base, variant);
  return std::move(builder).finish(std::move(out));
}

}  // namespace scn
