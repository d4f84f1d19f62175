// Closed-loop SLA controller (§IV.C "enabling closed loops ... can be used
// to manage performance according to given SLA agreements").
//
// Periodically compares each stream's observed latency and result quality
// against its target and returns verdicts: scale up when violating, scale
// down when comfortably under, relocate when too many results degraded.
// The caller decides what a verdict does; serve::DpeService shrinks or
// relaxes its batching window and admission watermark and quarantines a
// relocated tenant.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/stats.h"
#include "common/status.h"

namespace cim::runtime {

// The unit an SLA is kept for; a serve tenant id is one (serve/request.h).
using StreamId = std::uint64_t;

enum class SlaAction : std::uint8_t {
  kNone = 0,
  kScaleUp,    // violating: add a worker / replica for this stream
  kScaleDown,  // far under target: release capacity
  // Quality SLA violated: too many degraded results (fault-recovery
  // fell back to degraded tiles) — move the stream off the failing
  // hardware rather than adding more of it.
  kRelocate,
};

struct SlaTarget {
  double target_latency_ns = 1e6;
  // Hysteresis: scale up above target, scale down below
  // release_fraction * target.
  double release_fraction = 0.5;
  int min_samples = 8;
  // Quality floor: fraction of results in a window that may be degraded
  // (carried a non-clean fault report) before the stream demands
  // relocation. 1.0 disables quality enforcement.
  double max_degraded_fraction = 1.0;
};

struct SlaDecision {
  StreamId stream = 0;
  SlaAction action = SlaAction::kNone;
  double observed_ns = 0.0;
  double target_ns = 0.0;
  double degraded_fraction = 0.0;
};

class SlaController {
 public:
  Status SetTarget(StreamId stream, SlaTarget target) {
    if (target.target_latency_ns <= 0.0) {
      return InvalidArgument("target latency must be positive");
    }
    if (target.release_fraction <= 0.0 || target.release_fraction >= 1.0) {
      return InvalidArgument("release_fraction must be in (0, 1)");
    }
    // 0.0 is a strict floor (any degraded result relocates); 1.0 disables
    // quality enforcement entirely.
    if (target.max_degraded_fraction < 0.0 ||
        target.max_degraded_fraction > 1.0) {
      return InvalidArgument("max_degraded_fraction must be in [0, 1]");
    }
    targets_[stream] = target;
    return Status::Ok();
  }

  void Observe(StreamId stream, double latency_ns) {
    windows_[stream].Add(latency_ns);
  }

  // Result-quality feed (§V.A degradation accounting): call once per
  // result with whether fault recovery degraded it (a non-clean
  // FaultReport). Latency and quality are independent windows — a stream
  // can be fast *because* its tiles degraded, which is exactly the case
  // the quality floor exists to catch.
  void ObserveQuality(StreamId stream, bool degraded) {
    QualityWindow& window = quality_[stream];
    ++window.total;
    if (degraded) ++window.degraded;
  }

  // Evaluate every stream against its target over the current window,
  // returning the actions to take; the windows reset after evaluation.
  // A quality violation (degraded fraction above the floor) dominates the
  // latency verdict: adding capacity on faulty hardware just produces
  // degraded results faster.
  [[nodiscard]] std::vector<SlaDecision> Evaluate() {
    std::vector<SlaDecision> decisions;
    for (auto& [stream, target] : targets_) {
      SlaDecision d;
      d.stream = stream;
      d.target_ns = target.target_latency_ns;
      bool have_latency = false;

      auto window_it = windows_.find(stream);
      if (window_it != windows_.end() &&
          window_it->second.count() >=
              static_cast<std::uint64_t>(target.min_samples)) {
        have_latency = true;
        d.observed_ns = window_it->second.mean();
        if (d.observed_ns > target.target_latency_ns) {
          d.action = SlaAction::kScaleUp;
        } else if (d.observed_ns <
                   target.release_fraction * target.target_latency_ns) {
          d.action = SlaAction::kScaleDown;
        }
        window_it->second.Reset();
      }

      auto quality_it = quality_.find(stream);
      if (quality_it != quality_.end() &&
          quality_it->second.total >=
              static_cast<std::uint64_t>(target.min_samples)) {
        d.degraded_fraction =
            static_cast<double>(quality_it->second.degraded) /
            static_cast<double>(quality_it->second.total);
        if (d.degraded_fraction > target.max_degraded_fraction) {
          d.action = SlaAction::kRelocate;
        }
        quality_it->second = QualityWindow{};
      }

      if (d.action == SlaAction::kScaleUp ||
          d.action == SlaAction::kRelocate) {
        ++violations_;
      }
      if (!have_latency && d.action == SlaAction::kNone) continue;
      if (d.action != SlaAction::kNone) decisions.push_back(d);
    }
    return decisions;
  }

  [[nodiscard]] std::uint64_t violations() const { return violations_; }

 private:
  struct QualityWindow {
    std::uint64_t total = 0;
    std::uint64_t degraded = 0;
  };

  std::map<StreamId, SlaTarget> targets_;
  std::map<StreamId, RunningStat> windows_;
  std::map<StreamId, QualityWindow> quality_;
  std::uint64_t violations_ = 0;
};

}  // namespace cim::runtime
