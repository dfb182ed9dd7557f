// Structure-of-arrays batch container for the compiled engine.
//
// A Batch holds `batch_size` independent input vectors for one network
// width, stored lane-major: element j of wire w lives at
// data[w * batch_size + j]. Running a layer's width-2 gates then touches two
// contiguous rows with a branchless kernel — a loop the compiler
// auto-vectorizes across the batch dimension — instead of gathering wires
// per input vector (array-of-structures), which defeats vectorization.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/network.h"

namespace scn::engine {

template <typename T>
class Batch {
 public:
  Batch() = default;
  Batch(std::size_t width, std::size_t batch_size)
      : width_(width),
        batch_size_(batch_size),
        data_(width * batch_size, T{}) {}

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t batch_size() const { return batch_size_; }

  /// All lanes of physical wire w, contiguous.
  [[nodiscard]] std::span<T> row(std::size_t w) {
    return {data_.data() + w * batch_size_, batch_size_};
  }
  [[nodiscard]] std::span<const T> row(std::size_t w) const {
    return {data_.data() + w * batch_size_, batch_size_};
  }

  [[nodiscard]] T& at(std::size_t w, std::size_t lane) {
    return data_[w * batch_size_ + lane];
  }
  [[nodiscard]] const T& at(std::size_t w, std::size_t lane) const {
    return data_[w * batch_size_ + lane];
  }

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }

  /// Scatters input vector `in` (indexed by physical wire) into lane `lane`.
  /// Throws std::invalid_argument, in every build, unless in.size() ==
  /// width() and lane < batch_size().
  void set_lane(std::size_t lane, std::span<const T> in) {
    if (in.size() != width_ || lane >= batch_size_) {
      throw std::invalid_argument(
          "Batch::set_lane: lane " + std::to_string(lane) + " of length " +
          std::to_string(in.size()) + " for a batch of " +
          std::to_string(batch_size_) + " lanes of width " +
          std::to_string(width_));
    }
    for (std::size_t w = 0; w < width_; ++w) at(w, lane) = in[w];
  }

  /// Gathers lane `lane` permuted into the given logical output order.
  [[nodiscard]] std::vector<T> lane_in_order(
      std::size_t lane, std::span<const Wire> order) const {
    std::vector<T> out;
    out.reserve(order.size());
    for (const Wire w : order) {
      out.push_back(at(static_cast<std::size_t>(w), lane));
    }
    return out;
  }

 private:
  std::size_t width_ = 0;
  std::size_t batch_size_ = 0;
  std::vector<T> data_;
};

/// Packs a set of same-width input vectors into a Batch. Throws
/// std::invalid_argument unless every vector's length is `width`.
template <typename T>
[[nodiscard]] Batch<T> pack_batch(std::span<const std::vector<T>> inputs,
                                  std::size_t width) {
  Batch<T> b(width, inputs.size());
  for (std::size_t j = 0; j < inputs.size(); ++j) b.set_lane(j, inputs[j]);
  return b;
}

}  // namespace scn::engine
