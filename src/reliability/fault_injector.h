// Scenario-driven, seed-replayable fault injection (§V.A).
//
// The paper's reliability argument is behavioural: faults happen, the
// dataflow structure detects them at component boundaries and redirects
// work. Proving that for the DPE inference runtime needs a fault *source*
// that is as deterministic as the runtime itself — otherwise a chaos test
// cannot distinguish "recovery worked" from "the fault landed somewhere
// else this run".
//
// A FaultScenario is a declarative list of FaultSpecs executed against
// registered injection hooks:
//
//   * structural faults (stuck-at cells, conductance-drift bursts, tile
//     death) mutate component state. They fire at *step
//     boundaries* — AdvanceTo(step) is called by the runtime from
//     single-threaded code between batch waves, so the mutation never races
//     with in-flight compute and every run applies the same faults before
//     the same element index.
//   * transient MVM corruption is stateless: the runtime asks
//     TransientPerturbation(target, tile, step, call) exactly once per
//     (tile, call) and perturbs the tile's output itself. The decision is a
//     pure function of (scenario seed, spec, tile, call), so it is
//     identical at every thread count and on every replay.
//
// Every injected event lands in a FaultLog whose canonical order and
// fingerprint are independent of thread scheduling: same seed + same
// scenario ⇒ identical log. That property is CI-gated (the replay_fault
// ctest).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace cim::reliability {

enum class FaultKind : std::uint8_t {
  kStuckOnCell = 0,  // cell shorts to g_on (all slices of one plane)
  kStuckOffCell,     // cell opens to g_off
  kDriftBurst,       // a burst of conductance drift (accelerated aging)
  kTransientMvm,     // one MVM result corrupted in flight (SEU analogue)
  kTileDeath,        // whole engine tile stops responding
};

// Sentinel for "let the scenario seed choose".
inline constexpr std::size_t kAnyIndex = static_cast<std::size_t>(-1);

struct FaultSpec {
  FaultKind kind = FaultKind::kStuckOnCell;
  // Name of the injection-hook registration this spec strikes, e.g.
  // "dpe.layer0".
  std::string target;
  // Global step (batch-element index for the DPE runtime) the fault fires
  // at: elements before `at_step` execute fault-free, elements at or after
  // it see the fault. For kTransientMvm this is the step corruption
  // becomes possible.
  std::uint64_t at_step = 0;
  // Tile within the target; kAnyIndex draws one from the scenario seed.
  std::size_t tile = kAnyIndex;
  // Stuck-cell faults: number of cells hit (a defect cluster) and optional
  // explicit coordinates (kAnyIndex draws each from the seed). `plane`
  // picks the differential plane (0 positive, 1 negative).
  std::size_t cells = 1;
  std::size_t row = kAnyIndex;
  std::size_t col = kAnyIndex;
  int plane = 0;
  // kDriftBurst: equivalent idle time of drift applied at once (> 0).
  double drift_ns = 0.0;
  // kTransientMvm: per-(tile, call) corruption probability (in [0, 1]) and
  // relative perturbation magnitude (>= 0; each event draws its sign).
  // Validate refuses a non-finite value in any of these three fields.
  double probability = 1.0;
  double magnitude = 0.5;
};

struct FaultScenario {
  std::uint64_t seed = 1;
  std::vector<FaultSpec> specs;

  [[nodiscard]] Status Validate() const;
};

// One injected event, as recorded for replay comparison.
struct FaultEvent {
  FaultKind kind = FaultKind::kStuckOnCell;
  std::uint32_t spec_index = 0;
  std::string target;
  std::uint64_t step = 0;
  std::size_t tile = 0;
  std::size_t row = 0;
  std::size_t col = 0;
  int plane = 0;
  // kTransientMvm: which per-tile call was corrupted.
  std::uint64_t call = 0;
};

// Thread-safe event log. Events() returns a canonical (scheduling-
// independent) order; Fingerprint() hashes that order, so two runs of the
// same scenario compare with one integer.
class FaultLog {
 public:
  void Record(FaultEvent event);
  [[nodiscard]] std::vector<FaultEvent> Events() const;
  [[nodiscard]] std::uint64_t Fingerprint() const;
  [[nodiscard]] std::size_t size() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<FaultEvent> events_;
};

// What a component exposes so scenarios can strike it. Hooks a component
// does not support stay null; Arm() verifies every spec finds the hook it
// needs. Structural hooks are only invoked from AdvanceTo — i.e. from
// whatever single-threaded boundary the runtime chooses — and therefore
// need no internal locking.
struct InjectionHooks {
  std::size_t tiles = 0;
  // (rows, cols) of one tile, used to draw in-range cell coordinates.
  std::function<std::pair<std::size_t, std::size_t>(std::size_t tile)>
      tile_dims;
  std::function<void(std::size_t tile, std::size_t row, std::size_t col,
                     int plane, bool stuck_on)>
      inject_cell;
  std::function<void(std::size_t tile)> kill_tile;
  std::function<void(std::size_t tile, double drift_ns)> drift;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultScenario scenario)
      : scenario_(std::move(scenario)) {}

  // Components register under the name scenario specs use as `target`.
  // Re-registering a name replaces the hooks (e.g. after re-creating an
  // accelerator for a replay).
  Status RegisterHooks(const std::string& target, InjectionHooks hooks);

  // Validates the scenario against the registered hooks and resets the
  // fired-spec state and the log. Call again to replay the scenario from
  // the start against fresh component state.
  [[nodiscard]] Status Arm();
  [[nodiscard]] bool armed() const { return armed_; }

  // Fire every not-yet-fired structural spec with at_step <= step. Must be
  // called from single-threaded code (the runtime's wave boundaries): the
  // hooks mutate component state.
  void AdvanceTo(std::uint64_t step);

  // Sorted, de-duplicated structural at_steps strictly inside (lo, hi) —
  // the wave-split points a batch covering elements [lo, hi) must honour.
  [[nodiscard]] std::vector<std::uint64_t> StructuralStepsIn(
      std::uint64_t lo, std::uint64_t hi) const;

  // Transient-corruption decision for one (target, tile, call) MVM at
  // global step `step`. Returns 0.0 for "clean", otherwise a signed
  // relative perturbation the caller applies to the tile output. Pure in
  // (scenario seed, spec, tile, call); records into the log on a hit.
  // Thread-safe. Call exactly once per (tile, call) — on the first
  // execution attempt, not on retries: a transient is gone when the work
  // re-runs.
  [[nodiscard]] double TransientPerturbation(std::string_view target,
                                             std::size_t tile,
                                             std::uint64_t step,
                                             std::uint64_t call);

  [[nodiscard]] const FaultLog& log() const { return log_; }
  [[nodiscard]] const FaultScenario& scenario() const { return scenario_; }

 private:
  void Fire(std::size_t spec_index, const FaultSpec& spec);

  FaultScenario scenario_;
  std::map<std::string, InjectionHooks> hooks_;
  std::vector<bool> fired_;
  bool armed_ = false;
  FaultLog log_;
};

}  // namespace cim::reliability
