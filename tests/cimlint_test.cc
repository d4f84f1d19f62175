// Unit tests for the cim-lint rule engine (tools/cimlint). Each rule gets a
// firing case and a suppression case; the final test asserts the real tree
// is clean, so a convention regression fails the unit suite too, not just
// the dedicated `cimlint` ctest target.
#include "cimlint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace cimlint {
namespace {

using Files = std::vector<SourceFile>;

[[nodiscard]] std::vector<Finding> RuleFindings(
    const std::vector<Finding>& findings, const std::string& rule) {
  std::vector<Finding> out;
  std::copy_if(findings.begin(), findings.end(), std::back_inserter(out),
               [&](const Finding& f) { return f.rule == rule; });
  return out;
}

// ---------------------------------------------------------------------------
// pragma-once
// ---------------------------------------------------------------------------

TEST(PragmaOnceRule, FiresOnHeaderWithoutPragma) {
  const Files files = {{"src/foo/bar.h", "int Answer();\n"}};
  const auto findings = RuleFindings(LintFiles(files), "pragma-once");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/foo/bar.h");
}

TEST(PragmaOnceRule, CleanWhenPresentAndIgnoresNonHeaders) {
  const Files files = {{"src/foo/bar.h", "#pragma once\nint Answer();\n"},
                       {"src/foo/bar.cc", "int Answer() { return 42; }\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "pragma-once").empty());
}

TEST(PragmaOnceRule, SuppressedByCommentOnFirstLine) {
  const Files files = {
      {"src/foo/bar.h",
       "// generated header, cimlint: allow(pragma-once)\nint Answer();\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "pragma-once").empty());
}

// ---------------------------------------------------------------------------
// using-namespace-header
// ---------------------------------------------------------------------------

TEST(UsingNamespaceRule, FiresInHeaderOnly) {
  const Files files = {
      {"src/a.h", "#pragma once\nusing namespace std;\n"},
      {"src/a.cc", "using namespace std;\n"}};  // allowed in a .cc
  const auto findings =
      RuleFindings(LintFiles(files), "using-namespace-header");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/a.h");
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(UsingNamespaceRule, IgnoresCommentsAndSuppressions) {
  const Files files = {
      {"src/a.h",
       "#pragma once\n"
       "// using namespace std; (just a comment)\n"
       "using namespace std;  // cimlint: allow(using-namespace-header)\n"}};
  EXPECT_TRUE(
      RuleFindings(LintFiles(files), "using-namespace-header").empty());
}

// ---------------------------------------------------------------------------
// raw-rng
// ---------------------------------------------------------------------------

TEST(RawRngRule, FiresOnEveryBannedSource) {
  const Files files = {{"src/noise.cc",
                        "#include <random>\n"
                        "std::mt19937 gen;\n"
                        "std::random_device rd;\n"
                        "int a = rand();\n"
                        "void Seed() { srand(42); }\n"}};
  const auto findings = RuleFindings(LintFiles(files), "raw-rng");
  EXPECT_EQ(findings.size(), 4u);
}

TEST(RawRngRule, AllowedInRngHeaderAndSuppressible) {
  const Files files = {
      {"src/common/rng.h", "#pragma once\nstd::mt19937 reference_stream;\n"},
      {"src/noise.cc",
       "// cimlint: allow(raw-rng)\n"
       "std::mt19937 legacy;\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "raw-rng").empty());
}

TEST(RawRngRule, DoesNotFireOnIdentifiersContainingRand) {
  const Files files = {{"src/ok.cc",
                        "int operand(int x);\n"
                        "int y = operand(1);\n"
                        "double grand_total = 0.0;\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "raw-rng").empty());
}

// ---------------------------------------------------------------------------
// raw-thread
// ---------------------------------------------------------------------------

TEST(RawThreadRule, FiresOnEveryBannedPrimitive) {
  const Files files = {{"src/runtime/worker.cc",
                        "#include <thread>\n"
                        "std::thread t([] {});\n"
                        "std::jthread j([] {});\n"
                        "auto f = std::async([] { return 1; });\n"}};
  const auto findings = RuleFindings(LintFiles(files), "raw-thread");
  EXPECT_EQ(findings.size(), 3u);
}

TEST(RawThreadRule, AllowedInThreadPoolHeaderAndSuppressible) {
  const Files files = {
      {"src/common/thread_pool.h",
       "#pragma once\nstd::thread worker;\n"},
      {"src/runtime/worker.cc",
       "// cimlint: allow(raw-thread)\n"
       "std::thread legacy;\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "raw-thread").empty());
}

// ---------------------------------------------------------------------------
// second-mesh
// ---------------------------------------------------------------------------

TEST(SecondMeshRule, FiresOnMeshCreateInLibraryCode) {
  const Files files = {
      {"src/fabric/cosim.cc",
       "auto noc = noc::MeshNoc::Create(mesh, &queue_);\n"
       "auto b = cim::noc::MeshNoc :: Create (mesh, &q);\n"}};
  const auto findings = RuleFindings(LintFiles(files), "second-mesh");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[1].line, 2u);
}

TEST(SecondMeshRule, AllowedInTileGridBenchesTestsAndSuppressible) {
  const Files files = {
      {"src/arch/fabric.cc", "auto noc = noc::MeshNoc::Create(mesh, &q);\n"},
      {"src/noc/mesh.cc",
       "Expected<MeshNoc> MeshNoc::Create(const MeshParams& params,\n"
       "                                  EventQueue* queue) {}\n"},
      {"bench/bench_x.cc", "auto noc = noc::MeshNoc::Create(p, &q);\n"},
      {"tests/noc_test.cc", "auto noc = MeshNoc::Create(p, &q);\n"},
      {"perfbench/probes.cc", "auto m = cim::noc::MeshNoc::Create(p, &q);\n"},
      {"src/dataflow/executor.cc",
       "// Builds no MeshNoc::Create(...) of its own.\n"
       "auto grid = arch::TileGrid::Create(mesh, on_delivery, {});\n"
       "// cimlint: allow(second-mesh)\n"
       "auto probe = noc::MeshNoc::Create(mesh, &q);\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "second-mesh").empty());
}

TEST(RawThreadRule, DoesNotFireOnPoolUsageOrIdentifiers) {
  const Files files = {{"src/ok.cc",
                        "#include \"common/thread_pool.h\"\n"
                        "cim::ThreadPool pool(4);\n"
                        "int thread_count = 4;\n"
                        "pool.ParallelFor(8, [](std::size_t) {});\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "raw-thread").empty());
}

// ---------------------------------------------------------------------------
// magic-unit-literal
// ---------------------------------------------------------------------------

TEST(MagicUnitLiteralRule, FiresOnExpressionPositionLiterals) {
  const Files files = {{"src/model.cc",
                        "TimeNs Latency() { return TimeNs(12.5); }\n"
                        "EnergyPj Cost() { return EnergyPj{3.0}; }\n"
                        "TimeNs Window() { return TimeNs::Micros(2.0); }\n"}};
  EXPECT_EQ(RuleFindings(LintFiles(files), "magic-unit-literal").size(), 3u);
}

TEST(MagicUnitLiteralRule, AllowsZeroNamedDefaultsParamsAndTests) {
  const Files files = {
      {"src/model.cc", "void F(Q* q) { q->ScheduleAfter(TimeNs(0.0)); }\n"},
      {"src/params_like.h",
       "#pragma once\nstruct P { TimeNs read_latency{10.0}; };\n"},
      {"src/dpe/params.h", "#pragma once\nTimeNs kCycle = TimeNs(1.25);\n"},
      {"src/common/units.h", "#pragma once\nTimeNs kTick = TimeNs(1.0);\n"},
      {"tests/t.cc", "auto t = TimeNs(30.0);\n"},
      {"bench/b.cc", "auto t = EnergyPj(7.0);\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "magic-unit-literal").empty());
}

TEST(MagicUnitLiteralRule, Suppressible) {
  const Files files = {
      {"src/model.cc",
       "// one-off calibration point, cimlint: allow(magic-unit-literal)\n"
       "TimeNs Calibration() { return TimeNs(7.5); }\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "magic-unit-literal").empty());
}

// ---------------------------------------------------------------------------
// banned-function
// ---------------------------------------------------------------------------

TEST(BannedFunctionRule, FiresOnPrintfInLibraryCode) {
  const Files files = {{"src/module.cc",
                        "#include <cstdio>\n"
                        "void Dump() { std::printf(\"x\"); }\n"
                        "void Warn() { fprintf(stderr, \"y\"); }\n"}};
  EXPECT_EQ(RuleFindings(LintFiles(files), "banned-function").size(), 2u);
}

TEST(BannedFunctionRule, AllowsExecutablesAndSnprintfButNoLibraryFile) {
  const Files files = {
      {"src/common/log.cc", "void W() { fprintf(stderr, \"z\"); }\n"},
      {"bench/table.cc", "int main() { std::printf(\"row\\n\"); }\n"},
      {"src/fmt.cc", "void F(char* b) { snprintf(b, 4, \"q\"); }\n"}};
  const auto findings = RuleFindings(LintFiles(files), "banned-function");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/common/log.cc");
}

TEST(BannedFunctionRule, FiresOnExitOutsideMain) {
  const Files files = {
      {"src/module.cc", "void Die() { exit(1); }\n"},
      {"examples/tool.cc", "int main() { std::exit(0); }\n"},
      {"src/registry.cc", "void Hook() { atexit(nullptr); }\n"}};
  const auto findings = RuleFindings(LintFiles(files), "banned-function");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/module.cc");
}

TEST(BannedFunctionRule, Suppressible) {
  const Files files = {
      {"src/module.cc",
       "void Die() { exit(1); }  // cimlint: allow(banned-function)\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "banned-function").empty());
}

// ---------------------------------------------------------------------------
// unused-status
// ---------------------------------------------------------------------------

constexpr const char* kStatusHeader =
    "#pragma once\n"
    "struct Engine {\n"
    "  Status Start();\n"
    "  Expected<int> Measure();\n"
    "};\n"
    "Status Calibrate();\n";

TEST(UnusedStatusRule, FiresOnDiscardedStatementCalls) {
  const Files files = {
      {"src/engine.h", kStatusHeader},
      {"src/use.cc",
       "void Run(Engine& e) {\n"
       "  e.Start();\n"        // discarded Status
       "  e.Measure();\n"      // discarded Expected<int>
       "  Calibrate();\n"      // discarded free-function Status
       "}\n"}};
  const auto findings = RuleFindings(LintFiles(files), "unused-status");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(UnusedStatusRule, CleanWhenResultIsConsumed) {
  const Files files = {
      {"src/engine.h", kStatusHeader},
      {"src/use.cc",
       "Status Run(Engine& e) {\n"
       "  Status s = e.Start();\n"
       "  if (Status c = Calibrate(); !c.ok()) return c;\n"
       "  (void)e.Measure();\n"  // explicit discard satisfies this rule
                                 // (discarded-status polices it separately)
       "  return s;\n"
       "}\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "unused-status").empty());
}

TEST(UnusedStatusRule, SkipsAmbiguousNames) {
  // `Reset` returns Status on Engine but void on Widget: statement-position
  // calls cannot be attributed by a token scanner, so the rule stays quiet
  // and leaves those to the compiler's [[nodiscard]].
  const Files files = {
      {"src/engine.h", "#pragma once\nstruct E { Status Reset(); };\n"},
      {"src/widget.h", "#pragma once\nstruct W { void Reset(); };\n"},
      {"src/use.cc", "void Run(E& e, W& w) {\n  e.Reset();\n  w.Reset();\n}\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "unused-status").empty());
}

TEST(UnusedStatusRule, Suppressible) {
  const Files files = {
      {"src/engine.h", kStatusHeader},
      {"src/use.cc",
       "void Run(Engine& e) {\n"
       "  // best-effort warm-up, cimlint: allow(unused-status)\n"
       "  e.Start();\n"
       "}\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "unused-status").empty());
}

// ---------------------------------------------------------------------------
// discarded-status
// ---------------------------------------------------------------------------

TEST(DiscardedStatusRule, FiresOnVoidCastsOfStatusCalls) {
  const Files files = {
      {"src/engine.h", kStatusHeader},
      {"src/use.cc",
       "void Run(Engine& e) {\n"
       "  (void)e.Start();\n"
       "  static_cast<void>(Calibrate());\n"
       "  (void)e.Measure();\n"
       "}\n"}};
  const auto findings = RuleFindings(LintFiles(files), "discarded-status");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[1].line, 3u);
}

TEST(DiscardedStatusRule, FiresThroughReceiverChains) {
  const Files files = {
      {"src/engine.h", kStatusHeader},
      {"src/use.cc",
       "void Run(Engine* e, Engine** tile) {\n"
       "  (void)e->Start();\n"
       "  (void)(*tile)->Start();\n"
       "  (void)Factory().engine(0).Measure();\n"
       "}\n"}};
  EXPECT_EQ(RuleFindings(LintFiles(files), "discarded-status").size(), 3u);
}

TEST(DiscardedStatusRule, SkipsTestsAndNonStatusCallees) {
  const Files files = {
      {"src/engine.h", kStatusHeader},
      {"tests/use_test.cc", "void Run(Engine& e) { (void)e.Start(); }\n"},
      {"bench/bench_use_test.cc",
       "void Run(Engine& e) { (void)e.Start(); }\n"},
      {"src/ok.cc",
       "void Run(Engine& e, int unused) {\n"
       "  (void)unused;\n"             // plain variable, not a call
       "  (void)e.helper(1);\n"        // not a Status/Expected function
       "  Status s = e.Start();\n"
       "  (void)s;\n"
       "}\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "discarded-status").empty());
}

TEST(DiscardedStatusRule, AllowCommentSuppressesAndOldMarkerDoesNot) {
  const Files files = {
      {"src/engine.h", kStatusHeader},
      {"src/use.cc",
       "void Run(Engine& e) {\n"
       "  static_cast<void>(Calibrate());  // cimlint: allow-discard\n"
       "  // best effort; failure resurfaces later.\n"
       "  // cimlint: allow(discarded-status)\n"
       "  (void)e.Start();\n"
       "  (void)e.Measure();  // cimlint: allow(discarded-status)\n"
       "}\n"}};
  const auto findings = RuleFindings(LintFiles(files), "discarded-status");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2u);
}

// ---------------------------------------------------------------------------
// pow2-in-hot-path
// ---------------------------------------------------------------------------

TEST(Pow2InHotPathRule, FiresOnPow2InModelCode) {
  const Files files = {{"src/model.cc",
                        "double A(int b) { return std::pow(2.0, b); }\n"
                        "double B(int b) { return std::pow(2, b); }\n"
                        "double C(int b) { return std :: pow( 2.0 , b); }\n"}};
  const auto findings = RuleFindings(LintFiles(files), "pow2-in-hot-path");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].line, 1u);
}

TEST(Pow2InHotPathRule, SkipsOtherBasesAndNonSrcCode) {
  const Files files = {
      {"src/model.cc",
       "double A(double x) { return std::pow(x, 2.0); }\n"     // base is x
       "double B(int k) { return std::pow(4.0, k); }\n"        // base 4
       "double C(double t) { return std::pow(20.0, t); }\n"    // base 20
       "double D(double t) { return std::pow(2.5, t); }\n"     // base 2.5
       "double E(int n) { return std::ldexp(1.0, n); }\n"},
      {"bench/bench_sweep.cc",
       "double W(int b) { return std::pow(2.0, b); }\n"},
      {"tests/sweep_test.cc",
       "double W(int b) { return std::pow(2.0, b); }\n"},
      {"examples/demo.cc",
       "double W(int b) { return std::pow(2.0, b); }\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "pow2-in-hot-path").empty());
}

TEST(Pow2InHotPathRule, AllowCommentSuppressesAndOldMarkerDoesNot) {
  const Files files = {
      {"src/model.cc",
       "double C(double s) { return std::pow(2.0, s); }  "
       "// cimlint: allow-pow2\n"
       "// genuinely non-integer exponent.\n"
       "// cimlint: allow(pow2-in-hot-path)\n"
       "double A(double s) { return std::pow(2.0, s - 1.0); }\n"
       "double B(double s) { return std::pow(2.0, s); }  "
       "// cimlint: allow(pow2-in-hot-path)\n"},
      {"src/other.cc",
       "// cimlint: allow-file(pow2-in-hot-path)\n"
       "double D(double s) { return std::pow(2.0, s); }\n"}};
  const auto findings = RuleFindings(LintFiles(files), "pow2-in-hot-path");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/model.cc");
  EXPECT_EQ(findings[0].line, 1u);
}

// ---------------------------------------------------------------------------
// lognormal-in-hot-path
// ---------------------------------------------------------------------------

TEST(LogNormalInHotPathRule, FiresOnDirectDrawsInAnalogHotPaths) {
  const Files files = {
      {"src/crossbar/kernel.cc",
       "void A(Rng& rng) { f = rng.LogNormal(0.0, s); }\n"
       "void B(Rng* rng) { f = rng->LogNormal(0.0, s); }\n"},
      {"src/device/cell.cc",
       "void C(Rng& rng) { g *= rng . LogNormal(0.0, s); }\n"}};
  const auto findings =
      RuleFindings(LintFiles(files), "lognormal-in-hot-path");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].file, "src/crossbar/kernel.cc");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[2].file, "src/device/cell.cc");
}

TEST(LogNormalInHotPathRule, SkipsNoiseModelAndOtherModules) {
  const Files files = {
      // The sanctioned home of the direct draw.
      {"src/device/noise_model.cc",
       "void A(Rng& rng) { out[i] = rng.LogNormal(0.0, s); }\n"},
      // Outside the analog hot paths, the rule does not apply.
      {"src/reliability/drift.cc",
       "void B(Rng& rng) { d = rng.LogNormal(0.0, s); }\n"},
      {"tests/noise_test.cc",
       "void C(Rng& rng) { f = rng.LogNormal(0.0, s); }\n"},
      // A declaration or unrelated identifier is not a draw.
      {"src/crossbar/kernel.h",
       "#pragma once\n"
       "double LogNormal(double mu, double sigma);\n"}};
  EXPECT_TRUE(
      RuleFindings(LintFiles(files), "lognormal-in-hot-path").empty());
}

TEST(LogNormalInHotPathRule, AllowCommentSuppressesAndOldMarkerDoesNot) {
  const Files files = {
      {"src/device/cell.cc",
       "void C(Rng& rng) { g *= rng.LogNormal(0.0, s); }  "
       "// cimlint: allow-lognormal\n"
       "// the golden reference draw.\n"
       "// cimlint: allow(lognormal-in-hot-path)\n"
       "void A(Rng& rng) { g *= rng.LogNormal(0.0, s); }\n"
       "void B(Rng& rng) { g *= rng.LogNormal(0.0, s); }  "
       "// cimlint: allow(lognormal-in-hot-path)\n"}};
  const auto findings =
      RuleFindings(LintFiles(files), "lognormal-in-hot-path");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 1u);
}

// ---------------------------------------------------------------------------
// blocking-in-server-loop
// ---------------------------------------------------------------------------

TEST(BlockingInServerLoopRule, FiresOnSleepsAndUnboundedWaitsInServe) {
  const Files files = {
      {"src/serve/service.cc",
       "void A() { std::this_thread::sleep_for(ms(5)); }\n"
       "void B() { std::this_thread::sleep_until(t); }\n"
       "void C(std::unique_lock<std::mutex>& l) { cv_.wait(l); }\n"
       "void D(std::condition_variable* cv) { cv->wait(lock); }\n"}};
  const auto findings =
      RuleFindings(LintFiles(files), "blocking-in-server-loop");
  ASSERT_EQ(findings.size(), 4u);
  EXPECT_EQ(findings[0].file, "src/serve/service.cc");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[3].line, 4u);
}

TEST(BlockingInServerLoopRule, BoundedWaitsAndOtherModulesAreClean) {
  const Files files = {
      // The deadline-aware forms are exactly what the rule steers toward.
      {"src/serve/clock.h",
       "#pragma once\n"
       "void W(std::unique_lock<std::mutex>& l) {\n"
       "  cv_.wait_for(l, std::chrono::nanoseconds(100), [] { return ok; });\n"
       "  cv_.wait_until(l, deadline, [] { return ok; });\n"
       "}\n"},
      // Outside src/serve/ the rule does not apply (raw-thread and friends
      // police the rest of the tree).
      {"src/runtime/pool_glue.cc",
       "void N() { std::this_thread::sleep_for(ms(1)); cv_.wait(lock); }\n"},
      // An identifier merely containing "wait" is not a blocking call.
      {"src/serve/service.h",
       "#pragma once\n"
       "double max_wait(int n);\n"
       "double w = max_wait(3);\n"}};
  EXPECT_TRUE(
      RuleFindings(LintFiles(files), "blocking-in-server-loop").empty());
}

TEST(BlockingInServerLoopRule, AllowCommentSuppressesAndOldMarkerDoesNot) {
  const Files files = {
      {"src/serve/service.cc",
       "void C() { cv_.wait(lock); }  // cimlint: allow-block\n"
       "// startup barrier, no deadline exists yet.\n"
       "// cimlint: allow(blocking-in-server-loop)\n"
       "void A() { cv_.wait(lock); }\n"
       "void B() { cv_.wait(lock); }  "
       "// cimlint: allow(blocking-in-server-loop)\n"}};
  const auto findings = LintFiles(files);
  const auto blocking = RuleFindings(findings, "blocking-in-server-loop");
  ASSERT_EQ(blocking.size(), 1u);
  EXPECT_EQ(blocking[0].line, 1u);
  EXPECT_TRUE(RuleFindings(findings, "stale-suppression").empty());
}

TEST(BlockingInServerLoopRule, StaleAllowIsFlagged) {
  const Files files = {
      {"src/serve/service.cc",
       "// cimlint: allow(blocking-in-server-loop)\n"
       "void A() { gate_.WaitBounded(lock, budget_ns, pred); }\n"}};
  const auto findings = RuleFindings(LintFiles(files), "stale-suppression");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/serve/service.cc");
}

TEST(CollectStatusFunctions, FindsDeclarationsAndFiltersAmbiguity) {
  const Files files = {
      {"src/a.h",
       "#pragma once\n"
       "Status Alpha();\n"
       "Expected<std::vector<double>> Beta(int n);\n"
       "void Gamma();\n"},
      {"src/b.h", "#pragma once\nvoid Alpha(int overload);\n"}};
  const auto names = CollectStatusFunctions(files);
  EXPECT_EQ(names.count("Beta"), 1u);
  EXPECT_EQ(names.count("Alpha"), 0u);  // ambiguous: void overload in b.h
  EXPECT_EQ(names.count("Gamma"), 0u);
}

// ---------------------------------------------------------------------------
// File-level suppression and the real tree
// ---------------------------------------------------------------------------

TEST(Suppression, AllowFileCoversEveryOccurrence) {
  const Files files = {{"src/noise.cc",
                        "// cimlint: allow-file(raw-rng)\n"
                        "std::mt19937 a;\n"
                        "std::mt19937 b;\n"
                        "int c = rand();\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "raw-rng").empty());
}

// ---------------------------------------------------------------------------
// Strip hardening: raw strings with custom delimiters and encoding prefixes
// must not desynchronize the scanner (contents are invisible to rules, code
// after the literal is still linted).
// ---------------------------------------------------------------------------

TEST(StripRawStrings, CustomDelimitersAndEncodingPrefixes) {
  const Files files = {{"src/strings.cc",
                        "const char* a = R\"x(std::mt19937 inside)x\";\n"
                        "const char* b = u8R\"(std::thread inside)\";\n"
                        "const char* c = LR\"y(srand(1) inside)y\";\n"
                        "const char* d = uR\"(rand() inside)\";\n"
                        "const char* e = UR\"(std::async inside)\";\n"
                        "std::mt19937 real;\n"}};
  const auto findings = LintFiles(files);
  const auto rng = RuleFindings(findings, "raw-rng");
  ASSERT_EQ(rng.size(), 1u);  // only the declaration after the raw strings
  EXPECT_EQ(rng[0].line, 6u);
  EXPECT_TRUE(RuleFindings(findings, "raw-thread").empty());
}

TEST(StripRawStrings, MultiLineRawStringKeepsLineNumbers) {
  const Files files = {{"src/strings.cc",
                        "const char* sql = R\"q(\n"
                        "  std::random_device inside line 2\n"
                        "  )not_the_end\" still inside\n"
                        ")q\";\n"
                        "std::random_device real;\n"}};
  const auto rng = RuleFindings(LintFiles(files), "raw-rng");
  ASSERT_EQ(rng.size(), 1u);
  EXPECT_EQ(rng[0].line, 5u);
}

TEST(StripRawStrings, IdentifierEndingInRIsNotARawString) {
  const Files files = {{"src/strings.cc",
                        "int ProcessR(const char* s);\n"
                        "int x = ProcessR(\"std::mt19937 in a string\");\n"
                        "std::mt19937 real;\n"}};
  const auto rng = RuleFindings(LintFiles(files), "raw-rng");
  ASSERT_EQ(rng.size(), 1u);
  EXPECT_EQ(rng[0].line, 3u);
}

// ---------------------------------------------------------------------------
// Pass A: layering spec parsing and include-graph checks
// ---------------------------------------------------------------------------

[[nodiscard]] LayerSpec SpecOf(const std::string& text) {
  LayerSpec spec;
  std::string error;
  EXPECT_TRUE(ParseLayerSpec(text, &spec, &error)) << error;
  return spec;
}

TEST(LayerSpecParse, LayersCommentsAndLayerOf) {
  const LayerSpec spec = SpecOf(
      "# bottom first\n"
      "layer common\n"
      "\n"
      "layer device noc  # same layer\n"
      "layer runtime\n");
  ASSERT_EQ(spec.layers.size(), 3u);
  EXPECT_EQ(spec.LayerOf("common"), 0);
  EXPECT_EQ(spec.LayerOf("device"), 1);
  EXPECT_EQ(spec.LayerOf("noc"), 1);
  EXPECT_EQ(spec.LayerOf("runtime"), 2);
  EXPECT_EQ(spec.LayerOf("mystery"), -1);
}

TEST(LayerSpecParse, RejectsBadDirectiveDuplicateAndEmpty) {
  LayerSpec spec;
  std::string error;
  EXPECT_FALSE(ParseLayerSpec("tier common\n", &spec, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(ParseLayerSpec("layer a\nlayer b a\n", &spec, &error));
  EXPECT_NE(error.find("'a' declared twice"), std::string::npos);
  EXPECT_FALSE(ParseLayerSpec("layer\n", &spec, &error));
  EXPECT_FALSE(ParseLayerSpec("# only comments\n", &spec, &error));
}

TEST(Layering, FlagsUpwardIncludePerSite) {
  const LayerSpec spec = SpecOf("layer low\nlayer high\n");
  const Files files = {
      {"src/high/api.h", "#pragma once\nint Api();\n"},
      {"src/low/impl.cc", "#include \"high/api.h\"\nint x;\n"}};
  const auto findings =
      RuleFindings(LintFiles(files, &spec), "layer-upward-include");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/low/impl.cc");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[0].key, "high/api.h");
}

TEST(Layering, AllowsDownwardSameLayerAndSelfIncludes) {
  const LayerSpec spec = SpecOf("layer low\nlayer mid1 mid2\nlayer high\n");
  const Files files = {
      {"src/low/base.h", "#pragma once\nint B();\n"},
      {"src/mid1/a.h", "#pragma once\n#include \"low/base.h\"\n"},
      {"src/mid2/b.h",
       "#pragma once\n#include \"mid1/a.h\"\n#include \"mid2/other.h\"\n"},
      {"src/mid2/other.h", "#pragma once\n"},
      {"src/high/top.cc",
       "#include \"mid2/b.h\"\n#include \"low/base.h\"\n"}};
  const auto findings = LintFiles(files, &spec);
  EXPECT_TRUE(RuleFindings(findings, "layer-upward-include").empty());
  EXPECT_TRUE(RuleFindings(findings, "layer-cycle").empty());
  EXPECT_TRUE(RuleFindings(findings, "layer-unknown-module").empty());
}

TEST(Layering, FlagsEveryEdgeOfACycle) {
  const LayerSpec spec = SpecOf("layer a b\n");
  const Files files = {
      {"src/a/x.h", "#pragma once\n#include \"b/y.h\"\n"},
      {"src/b/y.h", "#pragma once\n#include \"a/x.h\"\n"}};
  const auto findings = RuleFindings(LintFiles(files, &spec), "layer-cycle");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].key, "a->b");
  EXPECT_EQ(findings[1].key, "b->a");
}

TEST(Layering, FlagsModuleMissingFromSpec) {
  const LayerSpec spec = SpecOf("layer known\n");
  const Files files = {{"src/mystery/z.h", "#pragma once\nint Z();\n"}};
  const auto findings =
      RuleFindings(LintFiles(files, &spec), "layer-unknown-module");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].key, "mystery");
  EXPECT_EQ(findings[0].file, "src/mystery/z.h");
}

TEST(Layering, SuppressibleAtTheIncludeSite) {
  const LayerSpec spec = SpecOf("layer low\nlayer high\n");
  const Files files = {
      {"src/high/api.h", "#pragma once\nint Api();\n"},
      {"src/low/impl.cc",
       "#include \"high/api.h\"  // cimlint: allow(layer-upward-include)\n"}};
  const auto findings = LintFiles(files, &spec);
  EXPECT_TRUE(RuleFindings(findings, "layer-upward-include").empty());
  EXPECT_TRUE(RuleFindings(findings, "stale-suppression").empty());
}

#ifdef CIMLINT_REPO_ROOT
TEST(Layering, ServeSitsAloneOnTopOfTheRepoSpec) {
  // Reads the checked-in tools/cimlint/layers.txt: serve is its own top
  // layer, so the service may include dpe and security, while nothing below
  // may reach up into it.
  std::ifstream in(std::string(CIMLINT_REPO_ROOT) +
                   "/tools/cimlint/layers.txt");
  ASSERT_TRUE(in) << "cannot read tools/cimlint/layers.txt";
  std::ostringstream text;
  text << in.rdbuf();
  const LayerSpec spec = SpecOf(text.str());
  ASSERT_FALSE(spec.layers.empty());
  EXPECT_EQ(spec.layers.back(), std::vector<std::string>{"serve"});
  const Files files = {
      {"src/dpe/accelerator.h", "#pragma once\nint A();\n"},
      {"src/security/capability.h", "#pragma once\nint C();\n"},
      {"src/serve/service.h", "#pragma once\nint Svc();\n"},
      {"src/serve/service.cc",
       "#include \"dpe/accelerator.h\"\n"
       "#include \"security/capability.h\"\n"},
      // workloads sits a layer below serve and is not included back by it,
      // so this upward include is flagged without also forming a cycle.
      {"src/workloads/bad.cc", "#include \"serve/service.h\"\n"}};
  const auto findings = LintFiles(files, &spec);
  const auto upward = RuleFindings(findings, "layer-upward-include");
  ASSERT_EQ(upward.size(), 1u);
  EXPECT_EQ(upward[0].file, "src/workloads/bad.cc");
  EXPECT_EQ(upward[0].key, "serve/service.h");
  EXPECT_TRUE(RuleFindings(findings, "layer-unknown-module").empty());
  EXPECT_TRUE(RuleFindings(findings, "layer-cycle").empty());
}
#endif

TEST(Layering, IgnoresCommentedOutIncludes) {
  const LayerSpec spec = SpecOf("layer low\nlayer high\n");
  const Files files = {
      {"src/high/api.h", "#pragma once\nint Api();\n"},
      {"src/low/impl.cc", "// #include \"high/api.h\"\nint x;\n"}};
  EXPECT_TRUE(
      RuleFindings(LintFiles(files, &spec), "layer-upward-include").empty());
}

// ---------------------------------------------------------------------------
// Pass B: determinism & concurrency rules
// ---------------------------------------------------------------------------

TEST(NestedParallelRule, FiresOnSyntacticNesting) {
  const Files files = {{"src/par.cc",
                        "void F(cim::ThreadPool& pool) {\n"
                        "  pool.ParallelFor(8, [&](std::size_t i) {\n"
                        "    pool.ParallelFor(4, [&](std::size_t j) {});\n"
                        "  });\n"
                        "}\n"}};
  const auto findings =
      RuleFindings(LintFiles(files), "nested-parallel-region");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_EQ(findings[0].key, "ParallelFor");
}

TEST(NestedParallelRule, SubmitIsNotAParallelRegion) {
  // Only ParallelFor opens a parallel region; a Submit call (such as
  // serve::DpeService::Submit) neither opens one nor nests in one.
  const Files files = {{"src/par.cc",
                        "void F(cim::ThreadPool& pool, Service& svc) {\n"
                        "  pool.ParallelFor(8, [&](std::size_t i) {\n"
                        "    svc.Submit([] {});\n"
                        "  });\n"
                        "  svc.Submit([&] { thread_local int n = 0; });\n"
                        "}\n"}};
  const auto findings = LintFiles(files);
  EXPECT_TRUE(RuleFindings(findings, "nested-parallel-region").empty());
  EXPECT_TRUE(RuleFindings(findings, "thread-local-in-parallel").empty());
}

TEST(NestedParallelRule, CleanOnSequentialRegionsAndNonSrc) {
  const Files files = {
      {"src/par.cc",
       "void F(cim::ThreadPool& pool) {\n"
       "  pool.ParallelFor(8, [](std::size_t) {});\n"
       "  pool.ParallelFor(4, [](std::size_t) {});\n"
       "}\n"},
      {"bench/par.cc",
       "void F(cim::ThreadPool& p) {\n"
       "  p.ParallelFor(8, [&](std::size_t) { p.Submit([] {}); });\n"
       "}\n"}};
  EXPECT_TRUE(
      RuleFindings(LintFiles(files), "nested-parallel-region").empty());
}

TEST(ThreadLocalInParallelRule, FiresOnDeclInsideRegion) {
  const Files files = {{"src/par.cc",
                        "void F(cim::ThreadPool& pool) {\n"
                        "  pool.ParallelFor(8, [&](std::size_t i) {\n"
                        "    thread_local std::vector<double> buf;\n"
                        "    buf.clear();\n"
                        "  });\n"
                        "}\n"}};
  const auto findings =
      RuleFindings(LintFiles(files), "thread-local-in-parallel");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3u);
}

TEST(ThreadLocalInParallelRule, FiresOnWriteToOutsideThreadLocal) {
  const Files files = {{"src/par.cc",
                        "thread_local double acc = 0.0;\n"
                        "void F(cim::ThreadPool& pool) {\n"
                        "  pool.ParallelFor(8, [&](std::size_t i) {\n"
                        "    acc += 1.0;\n"
                        "  });\n"
                        "}\n"}};
  const auto findings =
      RuleFindings(LintFiles(files), "thread-local-in-parallel");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4u);
  EXPECT_EQ(findings[0].key, "acc");
}

TEST(ThreadLocalInParallelRule, ScratchBufferIdiomInCalleeIsClean) {
  const Files files = {{"src/par.cc",
                        "void Kernel() {\n"
                        "  thread_local std::vector<double> scratch;\n"
                        "  scratch.clear();\n"
                        "}\n"
                        "void F(cim::ThreadPool& pool) {\n"
                        "  pool.ParallelFor(8, [](std::size_t) { Kernel(); });\n"
                        "}\n"}};
  EXPECT_TRUE(
      RuleFindings(LintFiles(files), "thread-local-in-parallel").empty());
}

TEST(NondeterministicSeedRule, FiresOnWallClockAndAddressSeeds) {
  const Files files = {{"src/seed.cc",
                        "void F(cim::Rng& rng, Obj* o) {\n"
                        "  std::uint64_t seed = Mix(std::chrono::steady_clock::now());\n"
                        "  rng.Seed(reinterpret_cast<std::uintptr_t>(o));\n"
                        "  std::uint64_t s2 = seed ^ time(nullptr);\n"
                        "}\n"}};
  const auto findings =
      RuleFindings(LintFiles(files), "nondeterministic-seed");
  EXPECT_EQ(findings.size(), 3u);
}

TEST(NondeterministicSeedRule, TimingInstrumentationIsClean) {
  const Files files = {{"src/timing.cc",
                        "void F() {\n"
                        "  const auto start = std::chrono::steady_clock::now();\n"
                        "  Work();\n"
                        "  const auto stop = std::chrono::steady_clock::now();\n"
                        "  Record(stop - start);\n"
                        "}\n"
                        "void G(cim::Rng& rng) { rng.Seed(42); }\n"}};
  EXPECT_TRUE(
      RuleFindings(LintFiles(files), "nondeterministic-seed").empty());
}

TEST(UnorderedIterationRule, FiresOnAccumulationAcrossUnorderedOrder) {
  const Files files = {{"src/agg.cc",
                        "#include <unordered_map>\n"
                        "double Total(const std::unordered_map<int, double>& "
                        "weights) {\n"
                        "  double total = 0.0;\n"
                        "  for (const auto& [key, w] : weights) {\n"
                        "    total += w;\n"
                        "  }\n"
                        "  return total;\n"
                        "}\n"}};
  const auto findings = RuleFindings(LintFiles(files), "unordered-iteration");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 5u);
  EXPECT_EQ(findings[0].key, "weights");
}

TEST(UnorderedIterationRule, FiresOnAppendToOuterContainer) {
  const Files files = {{"src/agg.cc",
                        "#include <unordered_set>\n"
                        "void Collect(const std::unordered_set<int>& ids,\n"
                        "             std::vector<int>* out) {\n"
                        "  for (int id : ids) {\n"
                        "    out->push_back(id);\n"
                        "  }\n"
                        "}\n"}};
  EXPECT_EQ(RuleFindings(LintFiles(files), "unordered-iteration").size(), 1u);
}

TEST(UnorderedIterationRule, CleanCases) {
  const Files files = {
      // std::map iterates in key order.
      {"src/a.cc",
       "#include <map>\n"
       "double Total(const std::map<int, double>& w) {\n"
       "  double t = 0.0;\n"
       "  for (const auto& [k, v] : w) t += v;\n"
       "  return t;\n"
       "}\n"},
      // Writes through the loop variable are per-element.
      {"src/b.cc",
       "#include <unordered_map>\n"
       "void Reset(std::unordered_map<int, double>& w) {\n"
       "  for (auto& [k, v] : w) v = 0.0;\n"
       "}\n"},
      // Body-local state is re-created per element.
      {"src/c.cc",
       "#include <unordered_map>\n"
       "void Check(const std::unordered_map<int, double>& w) {\n"
       "  for (const auto& [k, v] : w) {\n"
       "    double scaled = v * 2.0;\n"
       "    Validate(scaled);\n"
       "  }\n"
       "}\n"},
      // tests/ and bench/ are out of scope.
      {"tests/d_test.cc",
       "#include <unordered_map>\n"
       "double T(const std::unordered_map<int, double>& w) {\n"
       "  double t = 0.0;\n"
       "  for (const auto& [k, v] : w) t += v;\n"
       "  return t;\n"
       "}\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "unordered-iteration").empty());
}

// ---------------------------------------------------------------------------
// Stale suppressions
// ---------------------------------------------------------------------------

TEST(StaleSuppression, FlagsUnusedAllowComments) {
  const Files files = {{"src/ok.cc",
                        "// cimlint: allow(raw-rng)\n"
                        "int x = 1;\n"
                        "int y = 2;  // cimlint: allow-file(raw-thread)\n"}};
  const auto findings = RuleFindings(LintFiles(files), "stale-suppression");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[0].key, "allow(raw-rng)");
  EXPECT_EQ(findings[1].line, 3u);
  EXPECT_EQ(findings[1].key, "allow-file(raw-thread)");
}

TEST(StaleSuppression, QuietWhenSuppressionIsConsumed) {
  const Files files = {{"src/noise.cc",
                        "// cimlint: allow(raw-rng)\n"
                        "std::mt19937 legacy;\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "stale-suppression").empty());
}

TEST(StaleSuppression, DocumentationMentionsAreNotSuppressions) {
  const Files files = {{"src/doc.cc",
                        "// See `cimlint: allow(raw-rng)` for the syntax.\n"
                        "// Justify with `// cimlint: allow(raw-rng)` instead.\n"
                        "int x = 1;\n"}};
  EXPECT_TRUE(RuleFindings(LintFiles(files), "stale-suppression").empty());
}

// ---------------------------------------------------------------------------
// Pass C: the SARIF emitter
// ---------------------------------------------------------------------------

TEST(SarifEmitter, SkeletonRuleIndexAndFingerprint) {
  const std::vector<Finding> findings = {
      {"src/a.cc", 3, "raw-rng", "msg", "k"}};
  const std::string out = ToSarif(findings);
  EXPECT_NE(out.find("\"$schema\": "
                     "\"https://json.schemastore.org/sarif-2.1.0.json\""),
            std::string::npos);
  EXPECT_NE(out.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"cimlint\""), std::string::npos);
  EXPECT_NE(out.find("\"ruleId\": \"raw-rng\""), std::string::npos);
  EXPECT_NE(out.find("\"ruleIndex\": 13"), std::string::npos);
  EXPECT_NE(out.find("\"startLine\": 3"), std::string::npos);
  EXPECT_NE(out.find("\"uriBaseId\": \"SRCROOT\""), std::string::npos);
  EXPECT_NE(out.find("\"cimlintKey/v1\": \"src/a.cc:raw-rng:k\""),
            std::string::npos);
  // Every rule the engine knows is declared in tool.driver.rules, even when
  // it produced no result (SARIF viewers need the registry up front).
  for (const char* rule :
       {"layer-upward-include", "layer-cycle", "unordered-iteration",
        "nested-parallel-region", "blocking-in-server-loop",
        "stale-suppression"}) {
    EXPECT_NE(out.find(std::string("\"id\": \"") + rule + "\""),
              std::string::npos)
        << rule;
  }
}

TEST(SarifEmitter, ByteStableAcrossInputOrder) {
  const Finding a{"src/a.cc", 3, "raw-rng", "m1", ""};
  const Finding b{"src/b.cc", 1, "raw-thread", "m2", ""};
  EXPECT_EQ(ToSarif({a, b}), ToSarif({b, a}));
}

// ---------------------------------------------------------------------------
// The real tree, gated exactly like CI: zero findings. A finding can only be
// accepted by an allow comment at its site.
// ---------------------------------------------------------------------------

#ifdef CIMLINT_REPO_ROOT
TEST(RepoTree, IsClean) {
  const std::vector<Finding> findings = LintTree(
      CIMLINT_REPO_ROOT, {"src", "bench", "examples", "tests", "tools"});
  for (const Finding& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
}
#endif

}  // namespace
}  // namespace cimlint
