// Neural-network description and float reference inference (golden model).
//
// Networks are the §VI workload: the DPE maps these layer descriptions onto
// crossbar tiles, the baselines execute them on roofline CPU/GPU models, and
// this module's float forward pass is the accuracy reference.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "nn/tensor.h"

namespace cim::nn {

enum class Activation : std::uint8_t { kNone = 0, kRelu, kSigmoid };

// Digital activation unit; inline because the DPE applies it once per output
// element after its bias add.
[[nodiscard]] inline double Activate(double v, Activation act) {
  switch (act) {
    case Activation::kNone: return v;
    case Activation::kRelu: return std::max(v, 0.0);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-v));
  }
  return v;
}

// Fully connected: y = W^T x + b. Weights stored row-major [in x out].
struct DenseLayer {
  std::size_t in_features = 0;
  std::size_t out_features = 0;
  std::vector<double> weights;
  std::vector<double> bias;
  Activation activation = Activation::kRelu;
};

// 2-D convolution over CHW tensors, square kernel, valid-or-same padding.
struct Conv2dLayer {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t padding = 0;
  // Weights [out_c][in_c][k][k] flattened; bias [out_c].
  std::vector<double> weights;
  std::vector<double> bias;
  Activation activation = Activation::kRelu;
};

// Max pooling over CHW tensors.
struct MaxPoolLayer {
  std::size_t window = 2;
  std::size_t stride = 2;
};

using Layer = std::variant<DenseLayer, Conv2dLayer, MaxPoolLayer>;

struct Network {
  std::string name;
  // Input shape: {features} for MLPs, {C, H, W} for CNNs.
  std::vector<std::size_t> input_shape;
  std::vector<Layer> layers;

  // Shape and weight-array checks; ProfileNetwork's walk without the result.
  [[nodiscard]] Status Validate() const;

  // Total multiply-accumulate count for one inference (used by the
  // analytical models and baselines); 0 for an invalid network.
  [[nodiscard]] std::uint64_t TotalMacs() const;
  // Total weight parameters.
  [[nodiscard]] std::uint64_t TotalWeights() const;
};

// Float reference forward pass.
[[nodiscard]] Expected<Tensor> Forward(const Network& net,
                                       const Tensor& input);

// Max pooling of a CHW tensor; the float model and the DPE's digital pool
// unit share it.
[[nodiscard]] Tensor MaxPool(const Tensor& input, const MaxPoolLayer& pool);

// Which Layer alternative a profile or mapping describes.
enum class LayerKind : std::uint8_t { kDense, kConv, kPool };

// Geometry and operation/traffic profile of one layer. ProfileNetwork is the
// one walk over a network's shapes: the float model, the behavioural and
// analytical DPE, the fabric partitioner and the baselines all read layer
// geometry from it.
struct LayerProfile {
  LayerKind kind = LayerKind::kDense;
  // Shape the layer consumes, after the implicit conv→dense flatten, and
  // the shape it produces.
  std::vector<std::size_t> in_shape;
  std::vector<std::size_t> out_shape;
  // Crossbar MVM calls per inference: 1 for dense, oh·ow for conv, 0 for
  // pool.
  std::uint64_t mvm_calls = 0;
  std::uint64_t macs = 0;
  std::uint64_t weight_count = 0;
  std::uint64_t in_elements = 0;
  std::uint64_t out_elements = 0;
};
// Validates the network (shapes and weight-array sizes) while it walks.
[[nodiscard]] Expected<std::vector<LayerProfile>> ProfileNetwork(
    const Network& net);

// Slice a dense layer to the output features [begin, begin + count): weight
// columns and bias entries, same activation. Feeding the full input through
// each slice and concatenating the outputs in order reproduces the unsliced
// layer exactly — column math is independent of its neighbors — which is
// what makes fabric column-splits bit-exact on noise-free devices.
[[nodiscard]] Expected<DenseLayer> SliceDenseOutputs(const DenseLayer& layer,
                                                     std::size_t begin,
                                                     std::size_t count);

// --- builders -------------------------------------------------------------

// MLP with the given layer widths (first entry = input features), random
// weights in [-scale, scale], ReLU hidden activations, no final activation.
[[nodiscard]] Network BuildMlp(const std::string& name,
                               const std::vector<std::size_t>& widths,
                               Rng& rng, double scale = 0.5);

// Small LeNet-style CNN for CHW inputs.
[[nodiscard]] Network BuildCnn(const std::string& name, std::size_t channels,
                               std::size_t height, std::size_t width,
                               std::size_t classes, Rng& rng);

// The §VI sweep: a family of networks from tiny to large.
[[nodiscard]] std::vector<Network> BuildBenchmarkSuite(Rng& rng);

}  // namespace cim::nn
