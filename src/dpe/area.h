// DPE silicon area model (§VI's "scale" axis in its physical dimension).
//
// Per-array area decomposes into the crossbar itself (tiny — memristor
// cells sit above the logic at ~4F^2) and the periphery that dominates:
// the shared ADC, row DACs/drivers, and the digital shift-and-add.
// Constants are 32 nm-class, in the envelope ISAAC reports (whole chip
// ~85 mm^2 for ~12k arrays plus buffers).
#pragma once

#include <cmath>

#include "common/status.h"
#include "dpe/analytical.h"
#include "dpe/params.h"
#include "nn/network.h"

namespace cim::dpe {

struct AreaParams {
  double cell_pitch_um = 0.2;        // crossbar cell pitch
  // SAR at the ADC's reference resolution; area scales as its energy does
  // (AdcParams::ResolutionScale).
  double adc_area_um2 = 3000.0;
  double dac_area_per_row_um2 = 4.0;
  double shift_add_area_um2 = 1100.0;
  double tile_overhead_um2_per_array = 2000.0;  // eDRAM + router share
};

class AreaModel {
 public:
  explicit AreaModel(AreaParams area = {}, DpeParams dpe = DpeParams::Isaac())
      : area_(area), dpe_(std::move(dpe)) {}

  // One crossbar array plus its periphery share, in um^2.
  [[nodiscard]] double ArrayAreaUm2() const {
    const double crossbar =
        static_cast<double>(dpe_.array.rows) * area_.cell_pitch_um *
        static_cast<double>(dpe_.array.cols) * area_.cell_pitch_um;
    const double adcs =
        std::ceil(static_cast<double>(dpe_.array.cols) /
                  static_cast<double>(dpe_.array.columns_per_adc)) *
        area_.adc_area_um2 * dpe_.array.adc.ResolutionScale();
    const double dacs = static_cast<double>(dpe_.array.rows) *
                        area_.dac_area_per_row_um2;
    return crossbar + adcs + dacs + area_.shift_add_area_um2 +
           area_.tile_overhead_um2_per_array;
  }

  [[nodiscard]] double ChipAreaMm2(std::size_t arrays) const {
    return static_cast<double>(arrays) * ArrayAreaUm2() * 1e-6;
  }

  // Silicon area to hold a network's weights resident (one replica).
  [[nodiscard]] Expected<double> NetworkAreaMm2(const nn::Network& net) const {
    AnalyticalDpeModel model(dpe_);
    auto estimate = model.EstimateInference(net);
    if (!estimate.ok()) return estimate.status();
    return ChipAreaMm2(estimate->arrays_used);
  }

  [[nodiscard]] const DpeParams& dpe() const { return dpe_; }

 private:
  AreaParams area_;
  DpeParams dpe_;
};

}  // namespace cim::dpe
