// Tests for the neural-network description and float golden model.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nn/network.h"
#include "nn/tensor.h"

namespace cim::nn {
namespace {

TEST(TensorTest, ShapeAndIndexing) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  EXPECT_TRUE(t.valid());
  t.at3(1, 2, 3) = 7.5;
  EXPECT_DOUBLE_EQ(t.at3(1, 2, 3), 7.5);
  EXPECT_DOUBLE_EQ(t[23], 7.5);
}

TEST(TensorTest, InvalidWhenDataMismatchesShape) {
  Tensor t({2, 2}, {1.0, 2.0, 3.0});
  EXPECT_FALSE(t.valid());
}

TEST(NetworkTest, MlpBuilderShapes) {
  Rng rng(1);
  const Network net = BuildMlp("test", {8, 16, 4}, rng);
  EXPECT_TRUE(net.Validate().ok());
  EXPECT_EQ(net.layers.size(), 2u);
  EXPECT_EQ(net.TotalMacs(), 8u * 16 + 16 * 4);
  EXPECT_EQ(net.TotalWeights(), 8u * 16 + 16 + 16 * 4 + 4);
}

TEST(NetworkTest, CnnBuilderValidates) {
  Rng rng(2);
  const Network net = BuildCnn("cnn", 1, 28, 28, 10, rng);
  EXPECT_TRUE(net.Validate().ok());
  EXPECT_GT(net.TotalMacs(), 100000u);
}

TEST(NetworkTest, ValidationCatchesShapeMismatch) {
  Network net;
  net.input_shape = {4};
  DenseLayer layer;
  layer.in_features = 5;  // mismatch with input
  layer.out_features = 2;
  layer.weights.resize(10);
  layer.bias.resize(2);
  net.layers.emplace_back(std::move(layer));
  EXPECT_FALSE(net.Validate().ok());
}

TEST(NetworkTest, ValidationCatchesWeightSizeMismatch) {
  Network net;
  net.input_shape = {4};
  DenseLayer layer;
  layer.in_features = 4;
  layer.out_features = 2;
  layer.weights.resize(3);  // wrong
  layer.bias.resize(2);
  net.layers.emplace_back(std::move(layer));
  EXPECT_FALSE(net.Validate().ok());
}

TEST(ForwardTest, DenseComputesAffineTransform) {
  Network net;
  net.input_shape = {2};
  DenseLayer layer;
  layer.in_features = 2;
  layer.out_features = 2;
  // W^T x: weights row-major [in x out].
  layer.weights = {1.0, 2.0,   // x0 -> y0: 1, y1: 2
                   3.0, 4.0};  // x1 -> y0: 3, y1: 4
  layer.bias = {0.5, -0.5};
  layer.activation = Activation::kNone;
  net.layers.emplace_back(std::move(layer));
  auto out = Forward(net, Tensor({2}, {1.0, 2.0}));
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ((*out)[0], 1.0 * 1 + 3.0 * 2 + 0.5);
  EXPECT_DOUBLE_EQ((*out)[1], 2.0 * 1 + 4.0 * 2 - 0.5);
}

TEST(ForwardTest, ReluClamps) {
  Network net;
  net.input_shape = {1};
  DenseLayer layer;
  layer.in_features = 1;
  layer.out_features = 1;
  layer.weights = {-5.0};
  layer.bias = {0.0};
  layer.activation = Activation::kRelu;
  net.layers.emplace_back(std::move(layer));
  auto out = Forward(net, Tensor({1}, {1.0}));
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ((*out)[0], 0.0);
}

TEST(ForwardTest, ConvIdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input.
  Network net;
  net.input_shape = {1, 3, 3};
  Conv2dLayer conv;
  conv.in_channels = 1;
  conv.out_channels = 1;
  conv.kernel = 1;
  conv.padding = 0;
  conv.weights = {1.0};
  conv.bias = {0.0};
  conv.activation = Activation::kNone;
  net.layers.emplace_back(std::move(conv));
  Tensor input({1, 3, 3});
  std::iota(input.vec().begin(), input.vec().end(), 1.0);
  auto out = Forward(net, input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->vec(), input.vec());
}

TEST(ForwardTest, ConvSumKernelWithPadding) {
  // 3x3 all-ones kernel with same-padding: each output is the sum of the
  // 3x3 neighbourhood.
  Network net;
  net.input_shape = {1, 3, 3};
  Conv2dLayer conv;
  conv.in_channels = 1;
  conv.out_channels = 1;
  conv.kernel = 3;
  conv.padding = 1;
  conv.weights.assign(9, 1.0);
  conv.bias = {0.0};
  conv.activation = Activation::kNone;
  net.layers.emplace_back(std::move(conv));
  Tensor input({1, 3, 3});
  input.vec().assign(9, 1.0);
  auto out = Forward(net, input);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->at3(0, 1, 1), 9.0);  // full neighbourhood
  EXPECT_DOUBLE_EQ(out->at3(0, 0, 0), 4.0);  // corner
  EXPECT_DOUBLE_EQ(out->at3(0, 0, 1), 6.0);  // edge
}

TEST(ForwardTest, MaxPoolPicksMaxima) {
  Network net;
  net.input_shape = {1, 4, 4};
  net.layers.emplace_back(MaxPoolLayer{2, 2});
  Tensor input({1, 4, 4});
  std::iota(input.vec().begin(), input.vec().end(), 1.0);
  auto out = Forward(net, input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (std::vector<std::size_t>{1, 2, 2}));
  EXPECT_DOUBLE_EQ(out->at3(0, 0, 0), 6.0);
  EXPECT_DOUBLE_EQ(out->at3(0, 1, 1), 16.0);
}

TEST(ForwardTest, FlattensBetweenConvAndDense) {
  Rng rng(3);
  const Network net = BuildCnn("cnn", 1, 8, 8, 3, rng);
  Tensor input({1, 8, 8});
  for (auto& v : input.vec()) v = rng.Uniform(0.0, 1.0);
  auto out = Forward(net, input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (std::vector<std::size_t>{3}));
}

TEST(ForwardTest, InputShapeMismatchRejected) {
  Rng rng(4);
  const Network net = BuildMlp("m", {4, 2}, rng);
  EXPECT_FALSE(Forward(net, Tensor({3}, {1, 2, 3})).ok());
}

TEST(ProfileTest, ProfilesMatchTotals) {
  Rng rng(5);
  for (const Network& net :
       {BuildMlp("m", {16, 32, 8}, rng), BuildCnn("c", 1, 12, 12, 4, rng)}) {
    auto profiles = ProfileNetwork(net);
    ASSERT_TRUE(profiles.ok());
    std::uint64_t macs = 0, weights = 0;
    for (const LayerProfile& p : *profiles) {
      macs += p.macs;
      weights += p.weight_count;
    }
    EXPECT_EQ(macs, net.TotalMacs());
    EXPECT_EQ(weights, net.TotalWeights());
  }
}

TEST(ProfileTest, ElementsChainBetweenLayers) {
  Rng rng(6);
  const Network net = BuildMlp("m", {10, 20, 5}, rng);
  auto profiles = ProfileNetwork(net);
  ASSERT_TRUE(profiles.ok());
  ASSERT_EQ(profiles->size(), 2u);
  EXPECT_EQ((*profiles)[0].in_elements, 10u);
  EXPECT_EQ((*profiles)[0].out_elements, 20u);
  EXPECT_EQ((*profiles)[1].in_elements, 20u);
  EXPECT_EQ((*profiles)[1].out_elements, 5u);
}

TEST(ProfileTest, CnnGeometryFlattensBeforeDense) {
  // BuildCnn: conv(same) -> pool -> conv(same) -> pool -> dense -> dense.
  Rng rng(8);
  const Network net = BuildCnn("c", 1, 12, 12, 4, rng);
  auto profiles = ProfileNetwork(net);
  ASSERT_TRUE(profiles.ok());
  ASSERT_EQ(profiles->size(), 6u);
  using Shape = std::vector<std::size_t>;
  const std::vector<std::pair<Shape, Shape>> shapes = {
      {{1, 12, 12}, {8, 12, 12}}, {{8, 12, 12}, {8, 6, 6}},
      {{8, 6, 6}, {16, 6, 6}},    {{16, 6, 6}, {16, 3, 3}},
      {{144}, {64}},              {{64}, {4}}};
  const std::vector<std::uint64_t> mvm_calls = {144, 0, 36, 0, 1, 1};
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    EXPECT_EQ((*profiles)[i].in_shape, shapes[i].first) << "layer " << i;
    EXPECT_EQ((*profiles)[i].out_shape, shapes[i].second) << "layer " << i;
    EXPECT_EQ((*profiles)[i].mvm_calls, mvm_calls[i]) << "layer " << i;
  }
  // The flatten keeps the element count: layer 4 reads what layer 3 wrote.
  EXPECT_EQ((*profiles)[4].in_elements, (*profiles)[3].out_elements);
}

TEST(BenchmarkSuiteTest, AllNetworksValidate) {
  Rng rng(7);
  const auto suite = BuildBenchmarkSuite(rng);
  EXPECT_GE(suite.size(), 6u);
  for (const Network& net : suite) {
    EXPECT_TRUE(net.Validate().ok()) << net.name;
    EXPECT_GT(net.TotalMacs(), 0u) << net.name;
  }
  // The suite spans at least three orders of magnitude in size (the §VI
  // sweep needs a wide range).
  std::uint64_t min_macs = UINT64_MAX, max_macs = 0;
  for (const Network& net : suite) {
    min_macs = std::min(min_macs, net.TotalMacs());
    max_macs = std::max(max_macs, net.TotalMacs());
  }
  EXPECT_GT(max_macs, 1000u * min_macs);
}

}  // namespace
}  // namespace cim::nn
