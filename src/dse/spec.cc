#include "dse/spec.h"

#include <cstdio>

namespace cim::dse {
namespace {

// Effective length of an axis: an empty axis contributes one point (the
// base configuration's value).
template <typename T>
std::size_t AxisLen(const std::vector<T>& axis) {
  return axis.empty() ? 1 : axis.size();
}

template <typename T>
T AxisValue(const std::vector<T>& axis, std::size_t i, T base_value) {
  return axis.empty() ? base_value : axis[i];
}

}  // namespace

Status SweepSpec::Validate() const {
  for (std::size_t size : crossbar_sizes) {
    if (size == 0 || size > 4096) {
      return InvalidArgument("crossbar_sizes entries must be in [1, 4096]");
    }
  }
  for (int bits : adc_bits) {
    if (bits < 1 || bits > 16) {
      return InvalidArgument("adc_bits entries must be in [1, 16]");
    }
  }
  for (int bits : cell_bits) {
    if (bits < 1 || bits > 8) {
      return InvalidArgument("cell_bits entries must be in [1, 8]");
    }
  }
  // Same ceiling as FaultToleranceParams: every spare is a monitored unit.
  for (std::size_t spares : spare_tiles) {
    if (spares > 4096) {
      return InvalidArgument("spare_tiles entries must be <= 4096");
    }
  }
  // Written so NaN fails too.
  for (double sigma : noise_sigmas) {
    if (!(sigma >= 0.0 && sigma <= 1.0)) {
      return InvalidArgument("noise_sigmas entries must be in [0, 1]");
    }
  }
  for (device::KernelPolicy kernel : kernels) {
    if (kernel != device::KernelPolicy::kReference &&
        kernel != device::KernelPolicy::kFastBitExact &&
        kernel != device::KernelPolicy::kFastNoise) {
      return InvalidArgument("kernels entries must name a KernelPolicy");
    }
  }
  if (PointCount() == 0) return InvalidArgument("empty sweep grid");
  return Status::Ok();
}

std::size_t SweepSpec::PointCount() const {
  return AxisLen(crossbar_sizes) * AxisLen(adc_bits) * AxisLen(cell_bits) *
         AxisLen(spare_tiles) * AxisLen(noise_sigmas) * AxisLen(kernels);
}

SweepSpec SweepSpec::Smoke() {
  SweepSpec spec;
  spec.crossbar_sizes = {32, 64};
  spec.adc_bits = {6, 8};
  spec.cell_bits = {2};
  spec.spare_tiles = {0};
  spec.noise_sigmas = {0.0, 0.05, 0.2};
  spec.kernels = {device::KernelPolicy::kFastNoise};
  return spec;
}

SweepSpec SweepSpec::Full() {
  SweepSpec spec;
  spec.crossbar_sizes = {32, 64, 128};
  spec.adc_bits = {6, 7, 8};
  spec.cell_bits = {2, 4};
  spec.spare_tiles = {0, 2};
  spec.noise_sigmas = {0.0, 0.02, 0.05, 0.1, 0.2};
  spec.kernels = {device::KernelPolicy::kFastNoise};
  return spec;
}

dpe::DpeParams DesignPoint::ToDpeParams(const dpe::DpeParams& base) const {
  dpe::DpeParams p = base;
  p.array.rows = crossbar_size;
  p.array.cols = crossbar_size;
  p.array.columns_per_adc = crossbar_size;
  p.array.adc.bits = adc_bits;
  p.array.cell.cell_bits = cell_bits;
  p.array.cell.read_noise_sigma = noise_sigma;
  p.array.kernel = kernel;
  p.fault_tolerance.enabled = spare_tiles > 0;
  p.fault_tolerance.spare_tiles = spare_tiles;
  p.worker_threads = 1;  // the sweep parallelizes across points, not inside
  return p;
}

std::string DesignPoint::Label() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "xb%zu_adc%d_cell%d_sp%zu_sg%.3f_",
                crossbar_size, adc_bits, cell_bits, spare_tiles, noise_sigma);
  return std::string(buf) + device::KernelPolicyName(kernel);
}

Expected<std::vector<DesignPoint>> ExpandGrid(const SweepSpec& spec,
                                              const dpe::DpeParams& base) {
  if (Status s = spec.Validate(); !s.ok()) return s;
  if (Status s = base.Validate(); !s.ok()) return s;
  std::vector<DesignPoint> points;
  points.reserve(spec.PointCount());
  // Row-major: crossbar_sizes outermost, kernels innermost. The resulting
  // index is the point's identity for seed derivation, so this order is
  // part of the artifact contract (docs/DSE.md).
  for (std::size_t a = 0; a < AxisLen(spec.crossbar_sizes); ++a) {
    for (std::size_t b = 0; b < AxisLen(spec.adc_bits); ++b) {
      for (std::size_t c = 0; c < AxisLen(spec.cell_bits); ++c) {
        for (std::size_t d = 0; d < AxisLen(spec.spare_tiles); ++d) {
          for (std::size_t e = 0; e < AxisLen(spec.noise_sigmas); ++e) {
            for (std::size_t f = 0; f < AxisLen(spec.kernels); ++f) {
              DesignPoint point;
              point.index = points.size();
              point.crossbar_size = AxisValue(spec.crossbar_sizes, a,
                                              base.array.rows);
              point.adc_bits = AxisValue(spec.adc_bits, b, base.array.adc.bits);
              point.cell_bits =
                  AxisValue(spec.cell_bits, c, base.array.cell.cell_bits);
              point.spare_tiles = AxisValue(spec.spare_tiles, d,
                                            base.fault_tolerance.spare_tiles);
              point.noise_sigma = AxisValue(spec.noise_sigmas, e,
                                            base.array.cell.read_noise_sigma);
              point.kernel = AxisValue(spec.kernels, f, base.array.kernel);
              if (Status s = point.ToDpeParams(base).Validate(); !s.ok()) {
                return s;
              }
              points.push_back(point);
            }
          }
        }
      }
    }
  }
  return points;
}

}  // namespace cim::dse
