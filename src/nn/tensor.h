// Minimal dense tensor used by the neural-network golden model and the DPE
// mapper. Row-major storage, rank <= 4 (N/C/H/W style layouts are the
// caller's convention).
#pragma once

#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "common/status.h"

namespace cim::nn {

// Element count of a shape — the size a tensor of that shape holds, and the
// width of the vector it flattens to.
[[nodiscard]] inline std::size_t ElementCount(
    const std::vector<std::size_t>& shape) {
  return std::accumulate(shape.begin(), shape.end(), std::size_t{1},
                         std::multiplies<>());
}

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape)
      : shape_(std::move(shape)), data_(ElementCount(shape_), 0.0) {}
  Tensor(std::vector<std::size_t> shape, std::vector<double> data)
      : shape_(std::move(shape)), data_(std::move(data)) {}

  [[nodiscard]] const std::vector<std::size_t>& shape() const {
    return shape_;
  }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool valid() const {
    return ElementCount(shape_) == data_.size();
  }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }
  [[nodiscard]] std::vector<double>& vec() { return data_; }
  [[nodiscard]] const std::vector<double>& vec() const { return data_; }

  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

  // 3-D accessor for (channel, row, col) layouts.
  [[nodiscard]] double& at3(std::size_t c, std::size_t h, std::size_t w) {
    return data_[(c * shape_[1] + h) * shape_[2] + w];
  }
  [[nodiscard]] double at3(std::size_t c, std::size_t h,
                           std::size_t w) const {
    return data_[(c * shape_[1] + h) * shape_[2] + w];
  }

 private:
  std::vector<std::size_t> shape_;
  std::vector<double> data_;
};

}  // namespace cim::nn
