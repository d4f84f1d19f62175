// Fabric configuration layer (Fig 4's "programming/configuration" plane,
// §V.C configurability).
//
// A FabricConfig is a declarative description of a deployment: which
// program runs on every micro-unit, which streams exist and along which
// paths, and how tiles are partitioned. The configurator validates the
// whole description first (nothing is applied on error — configuration is
// transactional at the validation level) and then applies it, reporting
// what changed and what the reconfiguration cost. Re-applying a modified
// config reprograms only the units whose programs differ — the
// "reconnecting components" reconfiguration §V.C describes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "arch/fabric.h"

namespace cim::arch {

struct TileConfig {
  noc::NodeId node;
  // One entry per micro-unit to (re)program; index = micro-unit slot.
  std::vector<std::optional<Program>> unit_programs;
};

struct StreamConfigEntry {
  std::uint64_t stream_id = 0;
  std::vector<noc::NodeId> path;
  noc::QosClass qos = noc::QosClass::kBulk;
};

struct PartitionEntry {
  noc::NodeId node;
  std::uint32_t partition = 0;
};

struct FabricConfig {
  std::vector<TileConfig> tiles;
  std::vector<StreamConfigEntry> streams;
  std::vector<PartitionEntry> partitions;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> allowed_flows;
};

struct ConfigReport {
  std::size_t programs_loaded = 0;
  std::size_t programs_unchanged = 0;  // skipped (already identical)
  std::size_t streams_configured = 0;
  std::size_t partitions_assigned = 0;
  CostReport reconfiguration_cost;
};

class Configurator {
 public:
  // Validate without side effects: every referenced tile/unit exists,
  // no program targets a failed micro-unit (a failed tile fails all of
  // its units), stream ids are unique within the config, paths are
  // on-fabric.
  [[nodiscard]] static Status Validate(Fabric& fabric,
                                       const FabricConfig& config);

  // Validate, then apply. Unchanged programs are skipped (idempotent
  // re-application costs nothing).
  [[nodiscard]] static Expected<ConfigReport> Apply(
      Fabric& fabric, const FabricConfig& config);
};

}  // namespace cim::arch
