// Byte-stable JSON artifact for a completed sweep.
//
// The artifact is the bench's recorded output (bench_dse_sweep --json) and
// the payload of the replay_dse two-run ctest: two runs of the same sweep
// must serialize to byte-identical strings. That forces the writer's rules:
// fixed field order, fixed float formatting (snprintf with explicit
// precision), no wall-clock values, no pointers, no locale dependence.
// docs/DSE.md documents the schema.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dse/driver.h"
#include "dse/spec.h"

namespace cim::dse {

struct SweepArtifact {
  std::string mode;  // "smoke" or "full"
  std::uint64_t seed = 0;
  std::size_t fault_cells = 0;
  SweepSpec spec;
  WorkloadParams workload;
  std::string network_name;
  std::vector<PointResult> results;          // canonical grid order
  std::vector<std::size_t> pareto_indices;   // ascending grid indices
};

// Assemble the artifact from a driver and its completed run; the Pareto
// front is extracted here so every artifact carries it.
[[nodiscard]] SweepArtifact MakeArtifact(const std::string& mode,
                                         const SweepSpec& spec,
                                         const SweepDriver& driver,
                                         std::vector<PointResult> results);

// Serialize with the byte-stability rules above. Ends in a newline.
[[nodiscard]] std::string WriteSweepJson(const SweepArtifact& artifact);

}  // namespace cim::dse
