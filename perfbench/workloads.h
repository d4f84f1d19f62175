// The four perfbench workloads. Each builds its inputs from the seed, times
// its set-up, runs a fixed amount of digested work, then repeats timed
// rounds for the requested seconds. README.md gives the rationale for each.
#pragma once

#include "bench_util.h"

namespace perfbench {

// DpeAccelerator::InferBatch on the noisy default device.
WorkloadReport RunInferNoisy(const RunOptions& options, Tracer& tracer);
// fabric::FabricCoSim, 4x4 tiles, quiet devices.
WorkloadReport RunFabricPipeline(const RunOptions& options, Tracer& tracer);
// serve::DpeService under an open-loop rate ladder with faults.
WorkloadReport RunServeOpenloop(const RunOptions& options, Tracer& tracer);
// arch::Fabric static streams with encryption and code packets (1 thread).
WorkloadReport RunStreamDataflow(const RunOptions& options, Tracer& tracer);

// Host threads per workload; a host with fewer usable CPUs skips it. At
// most two: on a shared 4-vCPU host a run that keeps every vCPU busy has far
// more of its time stolen by the hypervisor, and serve's 8-element batches
// are too fine-grained to gain from a second thread (README.md has data).
inline constexpr std::size_t kInferNoisyThreads = 2;
inline constexpr std::size_t kFabricPipelineThreads = 2;
inline constexpr std::size_t kServeOpenloopThreads = 1;
inline constexpr std::size_t kStreamDataflowThreads = 1;

}  // namespace perfbench
