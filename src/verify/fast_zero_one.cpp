#include "verify/fast_zero_one.h"

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace scn {
namespace {

using Word = std::uint64_t;

// Bit-sliced unsigned counter: planes[j] holds bit j of a per-position
// count. Enough planes for counts up to 64 (gate width cap).
struct SlicedCount {
  std::array<Word, 7> planes{};

  void add_one_bit(Word m) {
    // Ripple-carry add of a 1-bit addend per position.
    for (auto& plane : planes) {
      const Word carry = plane & m;
      plane ^= m;
      m = carry;
      if (m == 0) break;
    }
  }

  /// Mask of positions whose count >= k (k >= 1).
  [[nodiscard]] Word at_least(unsigned k) const {
    Word gt = 0;
    Word eq = ~Word{0};
    for (int j = static_cast<int>(planes.size()) - 1; j >= 0; --j) {
      const Word vb = planes[static_cast<std::size_t>(j)];
      const Word kb = (k >> j) & 1u ? ~Word{0} : Word{0};
      gt |= eq & vb & ~kb;
      eq &= ~(vb ^ kb);
    }
    return gt | eq;  // value > k or value == k
  }
};

// Loads the 64-vector input chunk starting at global index `base` into
// per-wire masks (bit t of masks[i] = wire i's value in vector base + t).
void load_chunk(std::uint64_t base, std::span<const Word> pattern,
                std::vector<Word>& masks) {
  for (std::size_t i = 0; i < masks.size(); ++i) {
    if (i < 6) {
      masks[i] = pattern[i];
    } else {
      masks[i] = (base >> i) & 1u ? ~Word{0} : Word{0};
    }
  }
}

std::array<Word, 6> low_bit_patterns() {
  std::array<Word, 6> pattern{};
  for (unsigned i = 0; i < 6; ++i) {
    Word m = 0;
    for (unsigned t = 0; t < 64; ++t) {
      if ((t >> i) & 1u) m |= Word{1} << t;
    }
    pattern[i] = m;
  }
  return pattern;
}

}  // namespace

SortingVerdict fast_verify_sorting_exhaustive(const Network& net) {
  const std::size_t w = net.width();
  assert(w <= 26 && "exhaustive 0-1 check limited to 2^26 inputs");
  SortingVerdict verdict;

  // Low six input bits follow fixed patterns across a 64-vector chunk.
  const std::array<Word, 6> pattern = low_bit_patterns();

  const std::uint64_t total = std::uint64_t{1} << w;
  const std::uint64_t chunks = (total + 63) / 64;
  std::vector<Word> masks(w);
  std::vector<Word> buf;
  for (std::uint64_t chunk = 0; chunk < chunks; ++chunk) {
    const std::uint64_t base = chunk * 64;
    const std::uint64_t valid =
        total - base >= 64 ? ~Word{0}
                           : (Word{1} << (total - base)) - 1;
    load_chunk(base, pattern, masks);
    // Evaluate gates.
    for (const Gate& g : net.gates()) {
      const auto ws = net.gate_wires(g);
      SlicedCount count;
      for (const Wire wire : ws) {
        count.add_one_bit(masks[static_cast<std::size_t>(wire)]);
      }
      for (std::size_t i = 0; i < ws.size(); ++i) {
        masks[static_cast<std::size_t>(ws[i])] =
            count.at_least(static_cast<unsigned>(i) + 1);
      }
    }
    // Check sortedness in logical output order.
    buf.clear();
    for (const Wire wire : net.output_order()) {
      buf.push_back(masks[static_cast<std::size_t>(wire)]);
    }
    Word violation = 0;
    for (std::size_t i = 0; i + 1 < buf.size(); ++i) {
      violation |= ~buf[i] & buf[i + 1];  // a 0 above a 1
    }
    violation &= valid;
    verdict.inputs_checked +=
        static_cast<std::uint64_t>(std::popcount(valid));
    if (violation != 0) {
      const unsigned t = static_cast<unsigned>(std::countr_zero(violation));
      const std::uint64_t j = base + t;
      verdict.ok = false;
      verdict.counterexample.resize(w);
      for (std::size_t i = 0; i < w; ++i) {
        verdict.counterexample[i] = static_cast<Count>((j >> i) & 1u);
      }
      return verdict;
    }
  }
  return verdict;
}

}  // namespace scn
