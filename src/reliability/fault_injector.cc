#include "reliability/fault_injector.h"

#include <algorithm>
#include <tuple>

#include "common/hash.h"
#include "common/units.h"

namespace cim::reliability {
namespace {

// Salt separating the structural draw stream of spec i from the transient
// decision streams (which additionally chain tile and call).
constexpr std::uint64_t kTransientSalt = 0x72610000ULL;

[[nodiscard]] bool IsStructural(FaultKind kind) {
  return kind != FaultKind::kTransientMvm;
}

[[nodiscard]] bool IsCellFault(FaultKind kind) {
  return kind == FaultKind::kStuckOnCell || kind == FaultKind::kStuckOffCell;
}

// Canonical comparison: independent of the order threads appended events.
[[nodiscard]] auto CanonicalKey(const FaultEvent& e) {
  return std::tie(e.step, e.spec_index, e.target, e.tile, e.call, e.row,
                  e.col, e.plane);
}

}  // namespace

Status FaultScenario::Validate() const {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const FaultSpec& spec = specs[i];
    if (spec.target.empty()) {
      return InvalidArgument("fault spec has empty target");
    }
    if (IsCellFault(spec.kind)) {
      if (spec.cells == 0) return InvalidArgument("cell fault with 0 cells");
      if (spec.plane != 0 && spec.plane != 1) {
        return InvalidArgument("plane must be 0 or 1");
      }
    }
    // NaN fails every range check below, so it is refused first: a NaN
    // drift ages every cell to a NaN conductance (and every cost after it
    // to NaN), and a NaN probability arms a transient that never fires.
    if (!AllFinite({spec.drift_ns, spec.probability, spec.magnitude})) {
      return InvalidArgument(
          "drift_ns, probability and magnitude must be finite");
    }
    if (spec.kind == FaultKind::kDriftBurst && spec.drift_ns <= 0.0) {
      return InvalidArgument("drift burst needs drift_ns > 0");
    }
    if (spec.kind == FaultKind::kTransientMvm &&
        (spec.probability < 0.0 || spec.probability > 1.0)) {
      return InvalidArgument("transient probability must be in [0, 1]");
    }
    // The perturbation's sign is drawn per event; the magnitude scales it.
    if (spec.kind == FaultKind::kTransientMvm && spec.magnitude < 0.0) {
      return InvalidArgument("transient magnitude must be >= 0");
    }
  }
  return Status::Ok();
}

void FaultLog::Record(FaultEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<FaultEvent> FaultLog::Events() const {
  std::vector<FaultEvent> sorted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sorted = events_;
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return CanonicalKey(a) < CanonicalKey(b);
            });
  return sorted;
}

std::uint64_t FaultLog::Fingerprint() const {
  std::uint64_t h = kFnvOffsetBasis;
  for (const FaultEvent& e : Events()) {
    FnvMixU64(h, static_cast<std::uint64_t>(e.kind));
    FnvMixU64(h, e.spec_index);
    for (char c : e.target) FnvMixByte(h, static_cast<unsigned char>(c));
    FnvMixU64(h, e.step);
    FnvMixU64(h, e.tile);
    FnvMixU64(h, e.row);
    FnvMixU64(h, e.col);
    FnvMixU64(h, static_cast<std::uint64_t>(e.plane));
    FnvMixU64(h, e.call);
  }
  return h;
}

std::size_t FaultLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void FaultLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

Status FaultInjector::RegisterHooks(const std::string& target,
                                    InjectionHooks hooks) {
  if (target.empty()) return InvalidArgument("empty hook target name");
  hooks_[target] = std::move(hooks);
  armed_ = false;  // hook set changed; re-validate before use
  return Status::Ok();
}

Status FaultInjector::Arm() {
  if (Status s = scenario_.Validate(); !s.ok()) return s;
  for (const FaultSpec& spec : scenario_.specs) {
    const auto it = hooks_.find(spec.target);
    if (it == hooks_.end()) {
      return NotFound("no injection hooks registered for target '" +
                      spec.target + "'");
    }
    const InjectionHooks& hooks = it->second;
    switch (spec.kind) {
      case FaultKind::kStuckOnCell:
      case FaultKind::kStuckOffCell:
        if (!hooks.inject_cell || !hooks.tile_dims || hooks.tiles == 0) {
          return FailedPrecondition("target '" + spec.target +
                                    "' lacks cell-injection hooks");
        }
        break;
      case FaultKind::kDriftBurst:
        if (!hooks.drift || hooks.tiles == 0) {
          return FailedPrecondition("target '" + spec.target +
                                    "' lacks a drift hook");
        }
        break;
      case FaultKind::kTileDeath:
        if (!hooks.kill_tile || hooks.tiles == 0) {
          return FailedPrecondition("target '" + spec.target +
                                    "' lacks a kill_tile hook");
        }
        break;
      case FaultKind::kTransientMvm:
        break;  // consulted via TransientPerturbation, no hook needed
    }
  }
  fired_.assign(scenario_.specs.size(), false);
  log_.Clear();
  armed_ = true;
  return Status::Ok();
}

void FaultInjector::AdvanceTo(std::uint64_t step) {
  if (!armed_) return;
  for (std::size_t i = 0; i < scenario_.specs.size(); ++i) {
    const FaultSpec& spec = scenario_.specs[i];
    if (fired_[i] || !IsStructural(spec.kind) || spec.at_step > step) {
      continue;
    }
    fired_[i] = true;
    Fire(i, spec);
  }
}

void FaultInjector::Fire(std::size_t spec_index, const FaultSpec& spec) {
  const InjectionHooks& hooks = hooks_.at(spec.target);
  // Every draw of this spec comes from its own derived stream: which tile
  // or cell a scenario strikes never depends on when AdvanceTo ran.
  Rng rng(DeriveSeed(scenario_.seed, spec_index));

  const auto pick_tile = [&]() -> std::size_t {
    if (spec.tile != kAnyIndex) return spec.tile % hooks.tiles;
    return static_cast<std::size_t>(rng.NextBounded(hooks.tiles));
  };

  FaultEvent event;
  event.kind = spec.kind;
  event.spec_index = static_cast<std::uint32_t>(spec_index);
  event.target = spec.target;
  event.step = spec.at_step;
  event.plane = spec.plane;

  switch (spec.kind) {
    case FaultKind::kStuckOnCell:
    case FaultKind::kStuckOffCell: {
      const std::size_t tile = pick_tile();
      const auto [rows, cols] = hooks.tile_dims(tile);
      for (std::size_t k = 0; k < spec.cells; ++k) {
        const std::size_t row =
            spec.row != kAnyIndex
                ? (spec.row + k) % rows
                : static_cast<std::size_t>(rng.NextBounded(rows));
        const std::size_t col =
            spec.col != kAnyIndex
                ? spec.col % cols
                : static_cast<std::size_t>(rng.NextBounded(cols));
        hooks.inject_cell(tile, row, col, spec.plane,
                          spec.kind == FaultKind::kStuckOnCell);
        event.tile = tile;
        event.row = row;
        event.col = col;
        log_.Record(event);
      }
      break;
    }
    case FaultKind::kDriftBurst: {
      const std::size_t tile = pick_tile();
      hooks.drift(tile, spec.drift_ns);
      event.tile = tile;
      log_.Record(event);
      break;
    }
    case FaultKind::kTileDeath: {
      const std::size_t tile = pick_tile();
      hooks.kill_tile(tile);
      event.tile = tile;
      log_.Record(event);
      break;
    }
    case FaultKind::kTransientMvm:
      break;  // not structural
  }
}

std::vector<std::uint64_t> FaultInjector::StructuralStepsIn(
    std::uint64_t lo, std::uint64_t hi) const {
  std::vector<std::uint64_t> steps;
  for (const FaultSpec& spec : scenario_.specs) {
    if (IsStructural(spec.kind) && spec.at_step > lo && spec.at_step < hi) {
      steps.push_back(spec.at_step);
    }
  }
  std::sort(steps.begin(), steps.end());
  steps.erase(std::unique(steps.begin(), steps.end()), steps.end());
  return steps;
}

double FaultInjector::TransientPerturbation(std::string_view target,
                                            std::size_t tile,
                                            std::uint64_t step,
                                            std::uint64_t call) {
  if (!armed_) return 0.0;
  double perturbation = 0.0;
  for (std::size_t i = 0; i < scenario_.specs.size(); ++i) {
    const FaultSpec& spec = scenario_.specs[i];
    if (spec.kind != FaultKind::kTransientMvm || spec.target != target ||
        step < spec.at_step) {
      continue;
    }
    if (spec.tile != kAnyIndex && spec.tile != tile) continue;
    // The decision stream is keyed by (spec, tile, call): pure, so every
    // thread count and every replay reaches the same verdict.
    Rng rng(DeriveSeed(DeriveSeed(DeriveSeed(scenario_.seed,
                                             kTransientSalt + i),
                                  tile),
                       call));
    if (!rng.Bernoulli(spec.probability)) continue;
    const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    perturbation += sign * spec.magnitude * rng.Uniform(0.5, 1.0);
    FaultEvent event;
    event.kind = spec.kind;
    event.spec_index = static_cast<std::uint32_t>(i);
    event.target = std::string(target);
    event.step = step;
    event.tile = tile;
    event.call = call;
    log_.Record(event);
  }
  return perturbation;
}

}  // namespace cim::reliability
