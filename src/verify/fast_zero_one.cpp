#include "verify/fast_zero_one.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/batch_engine.h"

namespace scn {
namespace {

using Word = std::uint64_t;

// Test vector `index` sets physical wire i to bit i of the index. A block
// holds 4,096 vectors: index bits 0-5 pick the bit within a word, bits
// 6-11 the word (the lane) and the rest the block.
constexpr unsigned kLaneShift = 6;
constexpr unsigned kBlockShift = 12;
static_assert(kPackBlock == std::size_t{1} << (kBlockShift - kLaneShift));

// Bit t of kLowBits[i] is bit i of t.
constexpr Word kLowBits[kLaneShift] = {
    0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000};

// Walks block b's vectors through the plan and returns the smallest index
// among them whose output is not sorted descending, or `none`. Below width
// 12 a block runs past 2^w, but each vector past it repeats the one at its
// index mod 2^w, so the smallest failing index is always a real one.
Word first_unsorted(const ExecutionPlan& plan, Word b,
                    std::span<engine::BitPlane> rows, Word none) {
  const Word lane_base = b << (kBlockShift - kLaneShift);
  for (std::size_t i = 0; i < plan.width(); ++i) {
    for (std::size_t j = 0; j < kPackBlock; ++j) {
      // Bit i of the index, as all ones or all zeros beyond bit 5.
      rows[i * kPackBlock + j].bits =
          i < kLaneShift ? kLowBits[i]
                         : 0 - (((lane_base | j) >> (i - kLaneShift)) & 1);
    }
  }
  run_plan_bit_planes(plan, rows);
  Word bad[kPackBlock] = {};
  const std::vector<Wire>& order = plan.output_order();
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    const auto* above = &rows[static_cast<std::size_t>(order[i]) * kPackBlock];
    const auto* below =
        &rows[static_cast<std::size_t>(order[i + 1]) * kPackBlock];
    for (std::size_t j = 0; j < kPackBlock; ++j) {
      bad[j] |= ~above[j].bits & below[j].bits;  // a 0 above a 1
    }
  }
  for (std::size_t j = 0; j < kPackBlock; ++j) {
    if (bad[j] != 0) {
      return b << kBlockShift | j << kLaneShift |
             static_cast<Word>(std::countr_zero(bad[j]));
    }
  }
  return none;
}

}  // namespace

SortingVerdict fast_verify_sorting_exhaustive(const Network& net,
                                              Runtime& rt) {
  const std::size_t w = net.width();
  if (w >= 64) {
    throw std::invalid_argument("fast_verify_sorting_exhaustive: width " +
                                std::to_string(w) + " overflows the index");
  }
  const CachedPlan cached = rt.compiled(net);
  const Word total = Word{1} << w;
  const Word blocks = std::max<Word>(1, total >> kBlockShift);
  // Threads claim blocks in index order and stop at one that starts past
  // the smallest failing index found, so every block below the final
  // minimum is checked whatever the pool: the verdict is deterministic.
  std::atomic<Word> next{0};
  std::atomic<Word> first_bad{total};
  const auto worker = [&](std::size_t, std::size_t) {
    // On cache lines, so that no vector load of a row straddles two.
    alignas(64) engine::BitPlane rows_at_max_width[63 * kPackBlock] = {};
    const std::span rows(rows_at_max_width, w * kPackBlock);
    for (Word b = next++; b < blocks && b << kBlockShift < first_bad;
         b = next++) {
      const Word bad = first_unsorted(*cached.plan, b, rows, total);
      Word seen = first_bad.load();
      while (bad < seen && !first_bad.compare_exchange_weak(seen, bad)) {
      }
    }
  };
  rt.pool().parallel_for(
      static_cast<std::size_t>(std::min<Word>(rt.threads(), blocks)), 1,
      worker);

  SortingVerdict verdict;
  verdict.ok = first_bad == total;
  verdict.inputs_checked = verdict.ok ? total : first_bad + 1;
  for (std::size_t i = 0; !verdict.ok && i < w; ++i) {
    verdict.counterexample.push_back(static_cast<Count>((first_bad >> i) & 1));
  }
  return verdict;
}

}  // namespace scn
