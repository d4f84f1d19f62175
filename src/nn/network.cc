#include "nn/network.h"

#include <algorithm>
#include <cmath>

namespace cim::nn {
namespace {

// Output spatial size of a conv/pool stage.
std::size_t OutDim(std::size_t in, std::size_t kernel, std::size_t stride,
                   std::size_t padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}

// Geometry of `layer` fed `in`; out_shape stays empty when the layer cannot
// consume that shape.
LayerProfile ProfileLayer(const Layer& layer, std::vector<std::size_t> in) {
  LayerProfile p;
  // A dense layer after a conv stack implicitly flattens.
  if (std::holds_alternative<DenseLayer>(layer) && in.size() == 3) {
    in = {ElementCount(in)};
  }
  p.in_shape = std::move(in);
  const std::vector<std::size_t>& s = p.in_shape;
  if (const auto* dense = std::get_if<DenseLayer>(&layer)) {
    p.kind = LayerKind::kDense;
    if (s.size() == 1 && s[0] == dense->in_features) {
      p.out_shape = {dense->out_features};
    }
    p.mvm_calls = 1;
    p.macs = static_cast<std::uint64_t>(dense->in_features) *
             dense->out_features;
    p.weight_count = dense->weights.size() + dense->bias.size();
  } else if (const auto* conv = std::get_if<Conv2dLayer>(&layer)) {
    p.kind = LayerKind::kConv;
    if (s.size() == 3 && s[0] == conv->in_channels &&
        s[1] + 2 * conv->padding >= conv->kernel &&
        s[2] + 2 * conv->padding >= conv->kernel) {
      const std::size_t oh =
          OutDim(s[1], conv->kernel, conv->stride, conv->padding);
      const std::size_t ow =
          OutDim(s[2], conv->kernel, conv->stride, conv->padding);
      p.out_shape = {conv->out_channels, oh, ow};
      p.mvm_calls = static_cast<std::uint64_t>(oh) * ow;
      p.macs = p.mvm_calls * conv->out_channels * conv->in_channels *
               conv->kernel * conv->kernel;
    }
    p.weight_count = conv->weights.size() + conv->bias.size();
  } else if (const auto* pool = std::get_if<MaxPoolLayer>(&layer)) {
    p.kind = LayerKind::kPool;
    if (s.size() == 3 && s[1] >= pool->window && s[2] >= pool->window) {
      p.out_shape = {s[0], OutDim(s[1], pool->window, pool->stride, 0),
                     OutDim(s[2], pool->window, pool->stride, 0)};
    }
  }
  p.in_elements = ElementCount(p.in_shape);
  p.out_elements = ElementCount(p.out_shape);
  return p;
}

}  // namespace

Expected<std::vector<LayerProfile>> ProfileNetwork(const Network& net) {
  if (net.input_shape.empty()) return InvalidArgument("missing input shape");
  std::vector<LayerProfile> profiles;
  profiles.reserve(net.layers.size());
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const Layer& layer = net.layers[i];
    LayerProfile p = ProfileLayer(
        layer, profiles.empty() ? net.input_shape : profiles.back().out_shape);
    if (p.out_shape.empty()) {
      return InvalidArgument("layer " + std::to_string(i) +
                             " incompatible with input shape");
    }
    if (const auto* dense = std::get_if<DenseLayer>(&layer)) {
      if (dense->weights.size() != dense->in_features * dense->out_features ||
          dense->bias.size() != dense->out_features) {
        return InvalidArgument("dense layer " + std::to_string(i) +
                               " weight/bias size mismatch");
      }
    }
    if (const auto* conv = std::get_if<Conv2dLayer>(&layer)) {
      if (conv->weights.size() != conv->out_channels * conv->in_channels *
                                      conv->kernel * conv->kernel ||
          conv->bias.size() != conv->out_channels) {
        return InvalidArgument("conv layer " + std::to_string(i) +
                               " weight/bias size mismatch");
      }
    }
    profiles.push_back(std::move(p));
  }
  return profiles;
}

Status Network::Validate() const { return ProfileNetwork(*this).status(); }

std::uint64_t Network::TotalMacs() const {
  auto profiles = ProfileNetwork(*this);
  if (!profiles.ok()) return 0;
  std::uint64_t macs = 0;
  for (const LayerProfile& p : *profiles) macs += p.macs;
  return macs;
}

std::uint64_t Network::TotalWeights() const {
  std::uint64_t weights = 0;
  for (const Layer& layer : layers) {
    if (const auto* dense = std::get_if<DenseLayer>(&layer)) {
      weights += dense->weights.size() + dense->bias.size();
    } else if (const auto* conv = std::get_if<Conv2dLayer>(&layer)) {
      weights += conv->weights.size() + conv->bias.size();
    }
  }
  return weights;
}

Tensor MaxPool(const Tensor& input, const MaxPoolLayer& pool) {
  const std::size_t channels = input.shape()[0];
  const std::size_t oh = OutDim(input.shape()[1], pool.window, pool.stride, 0);
  const std::size_t ow = OutDim(input.shape()[2], pool.window, pool.stride, 0);
  Tensor out({channels, oh, ow});
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        double best = -1e300;
        for (std::size_t ky = 0; ky < pool.window; ++ky) {
          for (std::size_t kx = 0; kx < pool.window; ++kx) {
            best = std::max(best, input.at3(c, oy * pool.stride + ky,
                                            ox * pool.stride + kx));
          }
        }
        out.at3(c, oy, ox) = best;
      }
    }
  }
  return out;
}

Expected<Tensor> Forward(const Network& net, const Tensor& input) {
  auto profiles = ProfileNetwork(net);
  if (!profiles.ok()) return profiles.status();
  if (input.shape() != net.input_shape) {
    return InvalidArgument("input shape mismatch");
  }
  Tensor current = input;
  for (std::size_t li = 0; li < net.layers.size(); ++li) {
    const Layer& layer = net.layers[li];
    const LayerProfile& p = (*profiles)[li];
    if (current.shape() != p.in_shape) {
      current = Tensor(p.in_shape, std::move(current.vec()));
    }
    if (const auto* dense = std::get_if<DenseLayer>(&layer)) {
      Tensor out(p.out_shape);
      for (std::size_t o = 0; o < dense->out_features; ++o) {
        double sum = dense->bias[o];
        for (std::size_t i = 0; i < dense->in_features; ++i) {
          sum += current[i] * dense->weights[i * dense->out_features + o];
        }
        out[o] = Activate(sum, dense->activation);
      }
      current = std::move(out);
    } else if (const auto* conv = std::get_if<Conv2dLayer>(&layer)) {
      const std::size_t ih = p.in_shape[1];
      const std::size_t iw = p.in_shape[2];
      const std::size_t oh = p.out_shape[1];
      const std::size_t ow = p.out_shape[2];
      Tensor out(p.out_shape);
      const std::size_t k = conv->kernel;
      for (std::size_t oc = 0; oc < conv->out_channels; ++oc) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            double sum = conv->bias[oc];
            for (std::size_t ic = 0; ic < conv->in_channels; ++ic) {
              for (std::size_t ky = 0; ky < k; ++ky) {
                for (std::size_t kx = 0; kx < k; ++kx) {
                  const std::int64_t iy =
                      static_cast<std::int64_t>(oy * conv->stride + ky) -
                      static_cast<std::int64_t>(conv->padding);
                  const std::int64_t ix =
                      static_cast<std::int64_t>(ox * conv->stride + kx) -
                      static_cast<std::int64_t>(conv->padding);
                  if (iy < 0 || ix < 0 ||
                      iy >= static_cast<std::int64_t>(ih) ||
                      ix >= static_cast<std::int64_t>(iw)) {
                    continue;
                  }
                  const double w =
                      conv->weights[((oc * conv->in_channels + ic) * k + ky) *
                                        k +
                                    kx];
                  sum += w * current.at3(ic, static_cast<std::size_t>(iy),
                                         static_cast<std::size_t>(ix));
                }
              }
            }
            out.at3(oc, oy, ox) = Activate(sum, conv->activation);
          }
        }
      }
      current = std::move(out);
    } else if (const auto* pool = std::get_if<MaxPoolLayer>(&layer)) {
      current = MaxPool(current, *pool);
    }
  }
  return current;
}

Expected<DenseLayer> SliceDenseOutputs(const DenseLayer& layer,
                                       std::size_t begin, std::size_t count) {
  if (count == 0) return InvalidArgument("empty dense slice");
  if (begin + count > layer.out_features) {
    return OutOfRange("dense slice past out_features");
  }
  if (layer.weights.size() != layer.in_features * layer.out_features ||
      layer.bias.size() != layer.out_features) {
    return InvalidArgument("dense layer weight/bias size mismatch");
  }
  DenseLayer slice;
  slice.in_features = layer.in_features;
  slice.out_features = count;
  slice.activation = layer.activation;
  slice.weights.resize(layer.in_features * count);
  for (std::size_t i = 0; i < layer.in_features; ++i) {
    const std::size_t src = i * layer.out_features + begin;
    const std::size_t dst = i * count;
    for (std::size_t o = 0; o < count; ++o) {
      slice.weights[dst + o] = layer.weights[src + o];
    }
  }
  slice.bias.assign(layer.bias.begin() + static_cast<std::ptrdiff_t>(begin),
                    layer.bias.begin() +
                        static_cast<std::ptrdiff_t>(begin + count));
  return slice;
}

Network BuildMlp(const std::string& name,
                 const std::vector<std::size_t>& widths, Rng& rng,
                 double scale) {
  Network net;
  net.name = name;
  net.input_shape = {widths.front()};
  for (std::size_t i = 0; i + 1 < widths.size(); ++i) {
    DenseLayer layer;
    layer.in_features = widths[i];
    layer.out_features = widths[i + 1];
    layer.weights.resize(layer.in_features * layer.out_features);
    layer.bias.resize(layer.out_features);
    for (auto& w : layer.weights) w = rng.Uniform(-scale, scale);
    for (auto& b : layer.bias) b = rng.Uniform(-scale / 10, scale / 10);
    layer.activation = (i + 2 == widths.size()) ? Activation::kNone
                                                : Activation::kRelu;
    net.layers.emplace_back(std::move(layer));
  }
  return net;
}

Network BuildCnn(const std::string& name, std::size_t channels,
                 std::size_t height, std::size_t width, std::size_t classes,
                 Rng& rng) {
  Network net;
  net.name = name;
  net.input_shape = {channels, height, width};

  const auto make_conv = [&rng](std::size_t in_c, std::size_t out_c,
                                std::size_t k) {
    Conv2dLayer conv;
    conv.in_channels = in_c;
    conv.out_channels = out_c;
    conv.kernel = k;
    conv.padding = k / 2;
    conv.weights.resize(out_c * in_c * k * k);
    conv.bias.resize(out_c);
    const double fan_in = static_cast<double>(in_c * k * k);
    const double scale = std::sqrt(2.0 / fan_in);
    for (auto& w : conv.weights) w = rng.Gaussian(0.0, scale);
    for (auto& b : conv.bias) b = 0.0;
    return conv;
  };

  net.layers.emplace_back(make_conv(channels, 8, 3));
  net.layers.emplace_back(MaxPoolLayer{});
  net.layers.emplace_back(make_conv(8, 16, 3));
  net.layers.emplace_back(MaxPoolLayer{});

  const std::size_t flat = 16 * (height / 4) * (width / 4);
  DenseLayer fc1;
  fc1.in_features = flat;
  fc1.out_features = 64;
  fc1.weights.resize(flat * 64);
  fc1.bias.resize(64);
  for (auto& w : fc1.weights) w = rng.Uniform(-0.1, 0.1);
  for (auto& b : fc1.bias) b = 0.0;
  net.layers.emplace_back(std::move(fc1));

  DenseLayer fc2;
  fc2.in_features = 64;
  fc2.out_features = classes;
  fc2.weights.resize(64 * classes);
  fc2.bias.resize(classes);
  for (auto& w : fc2.weights) w = rng.Uniform(-0.1, 0.1);
  for (auto& b : fc2.bias) b = 0.0;
  fc2.activation = Activation::kNone;
  net.layers.emplace_back(std::move(fc2));
  return net;
}

std::vector<Network> BuildBenchmarkSuite(Rng& rng) {
  std::vector<Network> suite;
  suite.push_back(BuildMlp("mlp-tiny", {16, 32, 10}, rng));
  suite.push_back(BuildMlp("mlp-small", {64, 128, 64, 10}, rng));
  suite.push_back(BuildMlp("mlp-mnist", {784, 256, 128, 10}, rng));
  suite.push_back(BuildMlp("mlp-wide", {1024, 2048, 1024, 100}, rng));
  suite.push_back(BuildCnn("cnn-small", 1, 28, 28, 10, rng));
  suite.push_back(BuildCnn("cnn-cifar", 3, 32, 32, 10, rng));
  return suite;
}

}  // namespace cim::nn
