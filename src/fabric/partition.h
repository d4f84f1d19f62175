// Partitioning a neural network across a W×H tile grid for fabric-scale
// co-simulation (the paper's micro-unit → unit → tile → fabric hierarchy).
//
// Two split axes compose:
//   layer splits    contiguous layer groups become pipeline *stages*; stage
//                   s feeds stage s+1 its activations over the NoC. Pool
//                   layers attach to the preceding MVM layer's stage.
//   column splits   a stage shards its dense layer's output features across
//                   `column_splits` tiles. Each shard computes a slice of
//                   the output vector, and every consumer tile of the next
//                   stage receives every slice. Column math is independent
//                   of its neighbors (fixed-range weight quantization, per-
//                   column ADC), so on noise-free devices a sharded stage is
//                   bit-identical to the unsharded one.
// Each (stage, split) pair is one *tile*, placed row-major on the mesh.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "nn/network.h"
#include "noc/mesh.h"
#include "noc/packet.h"

namespace cim::fabric {

struct FabricPartitionParams {
  std::uint16_t grid_width = 2;
  std::uint16_t grid_height = 2;
  // Pipeline stages; 0 = one stage per MVM (dense/conv) layer.
  std::size_t stages = 0;
  // Output-column shards per stage. > 1 requires every stage to hold
  // exactly one dense layer (conv/pool stages don't column-shard).
  std::size_t column_splits = 1;

  [[nodiscard]] Status Validate() const {
    if (grid_width == 0 || grid_height == 0) {
      return InvalidArgument("empty fabric grid");
    }
    // The grid is the co-simulated mesh, and every tile needs a node.
    const std::size_t nodes = std::size_t{grid_width} * grid_height;
    if (nodes > noc::MeshParams::kMaxMeshNodes) {
      return InvalidArgument("a fabric grid holds at most 65536 nodes");
    }
    if (column_splits == 0 || column_splits > nodes || stages > nodes) {
      return InvalidArgument("stages and column_splits must fit the grid");
    }
    return Status::Ok();
  }
};

// One tile of the partitioned network.
struct TileSpec {
  std::size_t stage = 0;
  std::size_t split = 0;
  noc::NodeId node;    // mesh placement, row-major by tile index
  nn::Network subnet;  // the contiguous layer slice this tile executes
  // The slice this tile produces within its stage's flattened output.
  std::size_t out_begin = 0;
  std::size_t out_count = 0;
};

struct FabricPlan {
  FabricPartitionParams params;
  std::size_t stage_count = 0;
  std::size_t splits_per_stage = 1;
  std::vector<TileSpec> tiles;  // ordered by (stage, split)
  // Shape consumed by each stage (post conv→dense flatten) and the shape
  // the final stage produces.
  std::vector<std::vector<std::size_t>> stage_input_shape;
  std::vector<std::size_t> output_shape;
  // Flattened element count each stage emits.
  std::vector<std::size_t> stage_out_dim;

  [[nodiscard]] const TileSpec& tile(std::size_t stage,
                                     std::size_t split) const {
    return tiles[stage * splits_per_stage + split];
  }
};

// Build the partition plan: group layers into stages, shard stage outputs,
// place tiles on the grid. Fails when the network has no MVM layers, when
// more tiles are requested than the grid holds, when `stages` exceeds the
// MVM layer count, or when column_splits > 1 meets a non-dense stage.
[[nodiscard]] Expected<FabricPlan> PartitionNetwork(
    const nn::Network& net, const FabricPartitionParams& params);

}  // namespace cim::fabric
