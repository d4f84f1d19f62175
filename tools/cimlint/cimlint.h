// cim-lint v2: a multi-pass static-analysis engine for this repository.
//
// Deliberately not a compiler plugin: the passes below work on stripped
// token/line text plus the project include graph, which keeps the tool
// dependency-free, fast enough to run as a ctest target on every build, and
// trivially portable to CI images that lack libclang.
//
// Passes:
//   A. Include-graph layering — every `#include` under src/ is an edge in
//      the module DAG over the src/ subdirectories. The DAG is checked
//      against the declared spec (tools/cimlint/layers.txt): upward edges
//      and cycles are findings (rules layer-upward-include, layer-cycle,
//      layer-unknown-module, layer-spec).
//   B. Determinism & concurrency rules backing DESIGN.md § Threading:
//      unordered-iteration, nondeterministic-seed, thread-local-in-parallel,
//      nested-parallel-region (see the rule table below).
//   C. Machine-readable reporting — a deterministic SARIF 2.1.0 emitter
//      for CI annotation. A finding is accepted only at its site, by a
//      `// cimlint: allow(<rule>)` comment with its reason on the line
//      above; an allow comment that stops matching is itself a finding.
//
// Rules (suppress one occurrence with `// cimlint: allow(<rule>)` on the
// same line or the line above; suppress for a whole file with
// `// cimlint: allow-file(<rule>)`; a suppression that no longer matches
// any finding is itself reported by stale-suppression):
//
//   unused-status          A statement-position call to a function that is
//                          declared to return Status or Expected<T>, with
//                          the result discarded. Backstops the compiler's
//                          [[nodiscard]] enforcement in code that is not
//                          compiled in every configuration. Names that are
//                          also declared somewhere with a non-Status return
//                          type (e.g. a void overload in another class) are
//                          skipped: the rule only fires on unambiguous
//                          names, the compiler catches the rest.
//   raw-rng                rand()/srand()/std::random_device/std::mt19937
//                          anywhere outside src/common/rng.h. Every noise
//                          path must go through the seeded Rng so results
//                          stay bit-for-bit reproducible.
//   raw-thread             std::thread/std::jthread/std::async anywhere
//                          outside src/common/thread_pool.h. Host
//                          parallelism goes through cim::ThreadPool so
//                          shutdown, exception propagation and utilization
//                          accounting stay in one audited place (and so
//                          the determinism rules of DESIGN.md § Threading
//                          are enforceable).
//   second-mesh            A `MeshNoc::Create(` in src/ outside
//                          src/arch/fabric.cc (arch::TileGrid, the one
//                          substrate under every fabric) and
//                          src/noc/mesh.cc (its definition). bench/,
//                          tests/ and perfbench/ build bare meshes on
//                          purpose and are out of scope.
//   using-namespace-header `using namespace` in a header.
//   pragma-once            Header missing `#pragma once`.
//   magic-unit-literal     A nonzero numeric literal passed directly to a
//                          TimeNs/EnergyPj constructor or factory in src/
//                          outside src/dpe/params.h and src/common/units.h.
//                          Hardware timing/energy constants belong in named
//                          parameter fields, not inline in model code.
//   banned-function        printf/fprintf in library code (src/) —
//                          executables under bench/ and examples/ print
//                          their tables freely; exit() in a file that
//                          does not define main().
//   discarded-status       A `(void)` / `static_cast<void>` cast of a call
//                          to a function returning Status/Expected, outside
//                          tests. Casting satisfies [[nodiscard]] but still
//                          drops the error on the floor; production code
//                          must handle it, or justify the discard with an
//                          allow comment. Test code exercises failure
//                          paths deliberately, so tests/ and *_test.cc are
//                          out of scope.
//   pow2-in-hot-path       `std::pow(2, ...)` / `std::pow(2.0, ...)` in
//                          model code (src/). Integer powers of two are
//                          exact shifts (or std::ldexp for negative
//                          exponents) — a libm call in the analog cycle /
//                          shift-and-add hot loops is measurable overhead.
//                          A genuinely non-integer exponent is justified
//                          with an allow comment. bench/, examples/ and
//                          tests/ are out of scope.
//   lognormal-in-hot-path  A direct `.LogNormal(`/`->LogNormal(` draw in
//                          src/crossbar/ or src/device/ outside
//                          device/noise_model.cc. Read-noise sampling in
//                          the analog hot paths goes through
//                          NoiseModel::Factors so the kernel policy
//                          (reference / fast-bit-exact / fast-noise) owns
//                          the sampler and its equivalence contract. The
//                          golden per-cell reference draw is justified
//                          with an allow comment.
//   blocking-in-server-loop  A `sleep_for(`/`sleep_until(` call or an
//                          unbounded `.wait(`/`->wait(` (condition_variable)
//                          in src/serve/. The serving loop must never block
//                          without a deadline — a nap cannot observe
//                          shutdown or shed expired requests, and an
//                          unbounded wait can hang the loop. A wait must
//                          be bounded (the deadline-aware
//                          wait_for/wait_until forms do not match); a
//                          justified block carries an allow comment.
//   layer-upward-include   An `#include` under src/ whose target module
//                          sits in a higher layer of layers.txt than the
//                          including module. A module may include itself,
//                          modules in its own layer, and modules below it.
//   layer-cycle            An `#include` edge participating in a cycle in
//                          the module graph (reported once per edge in the
//                          strongly connected component).
//   layer-unknown-module   A src/ subdirectory that layers.txt does not
//                          place in any layer — the spec must stay
//                          exhaustive as modules are added.
//   layer-spec             layers.txt itself is malformed (bad directive,
//                          module declared twice).
//   unordered-iteration    Range-for over a std::unordered_map/set variable
//                          whose body writes to state declared outside the
//                          loop. Iteration order is unspecified, so result
//                          merges must run in canonical order (sort keys
//                          first, or use std::map). src/ only.
//   nondeterministic-seed  A wall-clock read (`time(`, chrono `::now`) or a
//                          pointer-to-integer cast on a line that forms a
//                          seed. Seeds must come from the deterministic
//                          seed tree (common/rng.h) so runs replay
//                          bit-identically. src/ only.
//   thread-local-in-parallel  `thread_local` declared, or a file-level
//                          thread_local variable written, syntactically
//                          inside a ParallelFor argument list.
//                          Per-call scratch state belongs in function-scope
//                          thread_local caches of the callee (the
//                          scratch-buffer idiom, DESIGN.md § Threading) or
//                          in per-slot storage merged in canonical order.
//                          src/ only.
//   nested-parallel-region A ParallelFor call syntactically inside
//                          another ParallelFor argument list. A nested
//                          ParallelFor always runs inline on the calling
//                          thread, so the inner call is dead parallelism;
//                          write a plain loop instead. src/ only.
//   stale-suppression      A `cimlint: allow*` comment that no longer
//                          suppresses any finding. Not itself suppressible.
#pragma once

#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace cimlint {

struct Finding {
  std::string file;       // repo-relative path, '/' separators
  std::size_t line = 0;   // 1-based
  std::string rule;
  std::string message;
  // Line-stable identity token for the SARIF fingerprint (the included path
  // for layering rules, the callee for status rules, ...); empty when the
  // rule has no better key than (file, rule).
  std::string key;
};

// One file presented to the linter. `repo_path` is the path rules use for
// scoping decisions (e.g. "src/common/rng.h"); always '/'-separated.
struct SourceFile {
  std::string repo_path;
  std::string content;
};

// ---------------------------------------------------------------------------
// Pass A: module layering
// ---------------------------------------------------------------------------

// Parsed layering spec. Layer 0 is the bottom; a module may include itself,
// modules in its own layer, and modules in lower layers.
struct LayerSpec {
  std::vector<std::vector<std::string>> layers;

  // Layer index of `module`, or -1 when the spec does not place it.
  [[nodiscard]] int LayerOf(std::string_view module) const;
};

// Parses the layers.txt format: one `layer <module> [<module>...]` directive
// per line, bottom layer first; '#' starts a comment. Returns false and sets
// *error (with a 1-based line number) on a malformed or duplicated entry.
[[nodiscard]] bool ParseLayerSpec(const std::string& text, LayerSpec* spec,
                                  std::string* error);

// ---------------------------------------------------------------------------
// Pass C: machine-readable output
// ---------------------------------------------------------------------------

// SARIF 2.1.0. Findings are ordered (file, line, rule, key) and field order
// is fixed, so output is byte-stable for golden tests. Every known rule is
// listed in tool.driver.rules; results carry a partialFingerprints entry
// derived from Finding::key.
[[nodiscard]] std::string ToSarif(const std::vector<Finding>& findings);

// ---------------------------------------------------------------------------
// Driving the passes
// ---------------------------------------------------------------------------

// Scan every file for declarations returning Status or Expected<T> and
// collect the declared function/method names (last :: component).
[[nodiscard]] std::set<std::string> CollectStatusFunctions(
    const std::vector<SourceFile>& files);

// Runs every per-file rule over the file set; with a non-null `spec`, also
// runs the include-graph layering pass over the files under src/.
[[nodiscard]] std::vector<Finding> LintFiles(
    const std::vector<SourceFile>& files, const LayerSpec* spec = nullptr);

// Walks `subdirs` (repo-relative) under `repo_root`, lints every .h/.cc
// file found. Paths are reported repo-relative. When
// <repo_root>/tools/cimlint/layers.txt exists it is parsed and the layering
// pass runs; a parse failure is reported as a layer-spec finding.
[[nodiscard]] std::vector<Finding> LintTree(
    const std::filesystem::path& repo_root,
    const std::vector<std::string>& subdirs);

}  // namespace cimlint
