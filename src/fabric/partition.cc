#include "fabric/partition.h"

#include <string>
#include <utility>
#include <variant>

namespace cim::fabric {

Expected<FabricPlan> PartitionNetwork(const nn::Network& net,
                                      const FabricPartitionParams& params) {
  if (Status s = params.Validate(); !s.ok()) return s;
  auto profiles = nn::ProfileNetwork(net);  // validates the network
  if (!profiles.ok()) return profiles.status();

  std::vector<std::size_t> mvm_layers;
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    if ((*profiles)[i].mvm_calls > 0) mvm_layers.push_back(i);
  }
  if (mvm_layers.empty()) {
    return InvalidArgument("network has no dense/conv layers to partition");
  }

  FabricPlan plan;
  plan.params = params;
  plan.stage_count = params.stages == 0 ? mvm_layers.size() : params.stages;
  if (plan.stage_count > mvm_layers.size()) {
    return InvalidArgument("more stages than MVM layers");
  }
  plan.splits_per_stage = params.column_splits;
  const std::size_t tile_count = plan.stage_count * plan.splits_per_stage;
  const std::size_t grid_size =
      static_cast<std::size_t>(params.grid_width) * params.grid_height;
  if (tile_count > grid_size) {
    return InvalidArgument("partition needs " + std::to_string(tile_count) +
                           " tiles but the grid holds " +
                           std::to_string(grid_size));
  }

  // Stage s owns the layer range [start(s), start(s+1)): boundaries sit
  // immediately before evenly distributed MVM layers, so trailing pool
  // layers stay with the stage that produced their input.
  std::vector<std::size_t> stage_start(plan.stage_count + 1);
  stage_start[0] = 0;
  for (std::size_t s = 1; s < plan.stage_count; ++s) {
    stage_start[s] = mvm_layers[s * mvm_layers.size() / plan.stage_count];
  }
  stage_start[plan.stage_count] = net.layers.size();

  plan.stage_input_shape.resize(plan.stage_count);
  plan.stage_out_dim.resize(plan.stage_count);
  plan.tiles.reserve(tile_count);
  for (std::size_t s = 0; s < plan.stage_count; ++s) {
    const std::size_t begin = stage_start[s];
    const std::size_t end = stage_start[s + 1];
    plan.stage_input_shape[s] = (*profiles)[begin].in_shape;
    plan.stage_out_dim[s] = (*profiles)[end - 1].out_elements;

    const nn::DenseLayer* dense = nullptr;
    if (plan.splits_per_stage > 1) {
      if (end - begin != 1 ||
          (dense = std::get_if<nn::DenseLayer>(&net.layers[begin])) ==
              nullptr) {
        return InvalidArgument(
            "column_splits > 1 requires single-dense-layer stages (stage " +
            std::to_string(s) + " is not)");
      }
    }
    for (std::size_t k = 0; k < plan.splits_per_stage; ++k) {
      TileSpec tile;
      tile.stage = s;
      tile.split = k;
      const std::size_t idx = plan.tiles.size();
      tile.node = {static_cast<std::uint16_t>(idx % params.grid_width),
                   static_cast<std::uint16_t>(idx / params.grid_width)};
      tile.subnet.name = net.name + ".s" + std::to_string(s) + ".k" +
                         std::to_string(k);
      tile.subnet.input_shape = plan.stage_input_shape[s];
      if (dense != nullptr) {
        // Even shard of the stage's output features.
        tile.out_begin = k * dense->out_features / plan.splits_per_stage;
        const std::size_t out_end =
            (k + 1) * dense->out_features / plan.splits_per_stage;
        tile.out_count = out_end - tile.out_begin;
        auto slice =
            nn::SliceDenseOutputs(*dense, tile.out_begin, tile.out_count);
        if (!slice.ok()) return slice.status();
        tile.subnet.layers.emplace_back(std::move(*slice));
      } else {
        tile.out_begin = 0;
        tile.out_count = plan.stage_out_dim[s];
        tile.subnet.layers.assign(net.layers.begin() +
                                      static_cast<std::ptrdiff_t>(begin),
                                  net.layers.begin() +
                                      static_cast<std::ptrdiff_t>(end));
      }
      if (Status s2 = tile.subnet.Validate(); !s2.ok()) return s2;
      plan.tiles.push_back(std::move(tile));
    }
  }
  plan.output_shape = profiles->back().out_shape;
  return plan;
}

}  // namespace cim::fabric
