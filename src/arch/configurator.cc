#include "arch/configurator.h"

#include <set>

namespace cim::arch {

Status Configurator::Validate(Fabric& fabric, const FabricConfig& config) {
  for (const TileConfig& tile_config : config.tiles) {
    auto tile = fabric.TileAt(tile_config.node);
    if (!tile.ok()) return tile.status();
    if (tile_config.unit_programs.size() > (*tile)->micro_unit_count()) {
      return InvalidArgument(
          "more unit programs than micro-units at tile (" +
          std::to_string(tile_config.node.x) + "," +
          std::to_string(tile_config.node.y) + ")");
    }
    // Apply's LoadProgram would refuse a failed unit only after earlier
    // tiles were loaded; refuse the whole config here instead.
    for (std::size_t i = 0; i < tile_config.unit_programs.size(); ++i) {
      if (tile_config.unit_programs[i].has_value() &&
          (*tile)->micro_unit(i).failed()) {
        return Unavailable("micro-unit " + std::to_string(i) +
                           " at tile (" + std::to_string(tile_config.node.x) +
                           "," + std::to_string(tile_config.node.y) +
                           ") has failed");
      }
    }
  }
  std::set<std::uint64_t> stream_ids;
  for (const StreamConfigEntry& stream : config.streams) {
    if (!stream_ids.insert(stream.stream_id).second) {
      return InvalidArgument("duplicate stream id " +
                             std::to_string(stream.stream_id));
    }
    if (stream.path.empty()) {
      return InvalidArgument("stream " + std::to_string(stream.stream_id) +
                             " has an empty path");
    }
    for (noc::NodeId node : stream.path) {
      if (auto tile = fabric.TileAt(node); !tile.ok()) return tile.status();
    }
  }
  for (const PartitionEntry& entry : config.partitions) {
    if (auto tile = fabric.TileAt(entry.node); !tile.ok()) {
      return tile.status();
    }
    if (entry.partition == noc::PartitionManager::kUnassigned) {
      return InvalidArgument("partition 0 is reserved for 'unassigned'");
    }
  }
  return Status::Ok();
}

Expected<ConfigReport> Configurator::Apply(Fabric& fabric,
                                           const FabricConfig& config) {
  if (Status s = Validate(fabric, config); !s.ok()) return s;
  ConfigReport report;

  for (const TileConfig& tile_config : config.tiles) {
    auto tile = fabric.TileAt(tile_config.node);
    if (!tile.ok()) return tile.status();
    for (std::size_t i = 0; i < tile_config.unit_programs.size(); ++i) {
      const auto& maybe_program = tile_config.unit_programs[i];
      if (!maybe_program.has_value()) continue;
      MicroUnit& unit = (*tile)->micro_unit(i);
      if (unit.program() == *maybe_program) {
        ++report.programs_unchanged;
        continue;
      }
      const CostReport before = unit.lifetime_cost();
      if (Status s = unit.LoadProgram(*maybe_program); !s.ok()) return s;
      report.reconfiguration_cost += unit.lifetime_cost() - before;
      ++report.programs_loaded;
    }
  }
  for (const StreamConfigEntry& stream : config.streams) {
    if (Status s = fabric.ConfigureStream(stream.stream_id, stream.path,
                                          stream.qos);
        !s.ok()) {
      return s;
    }
    ++report.streams_configured;
  }
  for (const PartitionEntry& entry : config.partitions) {
    fabric.partitions().Assign(entry.node, entry.partition);
    ++report.partitions_assigned;
  }
  for (const auto& [from, to] : config.allowed_flows) {
    fabric.partitions().GrantFlow(from, to);
  }
  return report;
}

}  // namespace cim::arch
