// perfbench — the repo benchmark binary. run.py builds it and calls
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--expect-digest <hex>]
//
// It prints one detail line (digests, threads, host CPUs) and, as the last
// line of stdout, the result object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones and a Chrome trace file. Exit codes: 0 = correct, 1 = a
// correctness check failed, 2 = usage error, 3 = skipped (the host has
// fewer CPUs than the workload's thread count).
#include <sys/personality.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>

#include "common/contracts.h"
#include "workloads.h"

namespace {

using perfbench::MetricMap;

struct Declared {
  const char* name;
  const char* unit;
};

// Must list exactly BENCHMARK.json's end_to_end names (run.py checks).
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},
    {"items_per_s", "1/s"},
    {"model_latency_us_p50", "model_us"},
    {"model_latency_us_p99", "model_us"},
    {"model_energy_pj_per_item", "pJ"},
    {"top1_agreement", "fraction"},
    {"max_rate_rps", "1/model_s"},
    {"success_fraction", "fraction"},
    {"peak_rss_mb", "MB"},
};

// Must list exactly BENCHMARK.json's per_layer names. A layer the workload
// does not exercise reports 0.
constexpr Declared kPerLayer[] = {
    {"crossbar.cycle_ns_per_cell.noisy", "ns"},
    {"crossbar.cycle_ns_per_cell.quiet", "ns"},
    {"crossbar.mvm_us.noisy", "us"},
    {"crossbar.mvm_us.quiet", "us"},
    {"crossbar.mvm_us.fast_noise", "us"},
    {"crossbar.mvm_calls", "count"},
    {"crossbar.share_est", "fraction"},
    {"device.fill_ns_per_factor.fast_noise", "ns"},
    {"dpe.create_ms", "ms"},
    {"dpe.infer_batch_ms.p50", "ms"},
    {"dpe.infer_batch_ms.p90", "ms"},
    {"dpe.pool.busy_fraction", "fraction"},
    {"dpe.pool.tasks", "count"},
    {"dpe.arrays_used", "count"},
    {"dpe.recovery.detected", "count"},
    {"dpe.recovery.retried", "count"},
    {"dpe.recovery.remapped", "count"},
    {"dpe.recovery.degraded", "count"},
    {"dpe.recovery_cost_pj", "pJ"},
    {"fabric.create_ms", "ms"},
    {"fabric.infer_batch_ms.p50", "ms"},
    {"fabric.epochs", "count"},
    {"fabric.epoch_us", "us"},
    {"fabric.noc_latency_share", "fraction"},
    {"fabric.noc_energy_share", "fraction"},
    {"noc.injected", "count"},
    {"noc.delivered", "count"},
    {"noc.dropped", "count"},
    {"noc.rerouted_hops", "count"},
    {"noc.delivered_fraction", "fraction"},
    {"noc.latency_ns.mean", "model_ns"},
    {"noc.latency_ns.max", "model_ns"},
    {"noc.host_ns_per_packet", "ns"},
    {"noc.cipher_ns_per_byte", "ns"},
    {"arch.inject_us.p50", "us"},
    {"arch.drain_ms", "ms"},
    {"arch.send_program_us", "us"},
    {"arch.streams.completed", "count"},
    {"arch.streams.failed", "count"},
    {"arch.rejected_injections", "count"},
    {"arch.rejected_code_loads", "count"},
    {"arch.compute_energy_share", "fraction"},
    {"serve.submit_us.p50", "us"},
    {"serve.pump_ms.p50", "ms"},
    {"serve.handler_us.p50", "us"},
    {"serve.queue_wait_us.p50", "model_us"},
    {"serve.queue_wait_us.p99", "model_us"},
    {"serve.service_us.p50", "model_us"},
    {"serve.batch_fill", "count"},
    {"serve.batches", "count"},
    {"serve.p99_us.r0", "model_us"},
    {"serve.p99_us.r1", "model_us"},
    {"serve.p99_us.r2", "model_us"},
    {"serve.p99_us.r3", "model_us"},
    {"serve.p99_us.r4", "model_us"},
    {"serve.retries", "count"},
    {"serve.shed_deadline", "count"},
    {"serve.rejected_watermark", "count"},
    {"serve.rejected_capacity", "count"},
    {"serve.sla.scale_up", "count"},
    {"serve.sla.scale_down", "count"},
    {"serve.sla.relocations", "count"},
    {"trace.overhead_fraction", "fraction"},
};

struct WorkloadEntry {
  const char* name;
  std::size_t threads;
  perfbench::WorkloadReport (*run)(const perfbench::RunOptions&,
                                   perfbench::Tracer&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"infer-noisy", perfbench::kInferNoisyThreads, perfbench::RunInferNoisy},
    {"fabric-pipeline", perfbench::kFabricPipelineThreads,
     perfbench::RunFabricPipeline},
    {"serve-openloop", perfbench::kServeOpenloopThreads,
     perfbench::RunServeOpenloop},
    {"stream-dataflow", perfbench::kStreamDataflowThreads,
     perfbench::RunStreamDataflow},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--expect-digest <hex>]\n",
               argv0);
  return 2;
}

// Prints `declared` in order with the workload's values; every end-to-end
// metric must be present, an absent per-layer metric prints 0.
void PrintMetrics(const MetricMap& got, const Declared* declared,
                  std::size_t count, bool required) {
  for (const auto& [name, metric] : got) {
    bool known = false;
    for (std::size_t i = 0; i < count; ++i) {
      known = known || name == declared[i].name;
    }
    CIM_CHECK(known);
  }
  for (std::size_t i = 0; i < count; ++i) {
    double value = 0.0;
    const auto it = got.find(declared[i].name);
    CIM_CHECK(!required || it != got.end());
    if (it != got.end()) {
      CIM_CHECK(it->second.unit == declared[i].unit);
      CIM_CHECK(std::isfinite(it->second.value));
      value = it->second.value;
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", declared[i].name, value,
                declared[i].unit);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".";
  std::string expect_digest;
  perfbench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else if (flag == "--expect-digest") {
      expect_digest = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace) {
    return Usage(argv[0]);
  }
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (workload == w.name) entry = &w;
  }
  if (entry == nullptr) return Usage(argv[0]);

  const std::size_t cpus = perfbench::UsableCpus();
  if (entry->threads > cpus) {
    // Never run a workload narrower than it is defined: that would report
    // a different benchmark under the same name.
    std::printf("{\"perfbench\": {\"workload\": \"%s\", \"status\": "
                "\"SKIPPED\", \"reason\": \"needs %zu threads, host has %zu "
                "usable CPUs\"}}\n",
                entry->name, entry->threads, cpus);
    return 3;
  }

  perfbench::Tracer tracer(options.trace);
  perfbench::WorkloadReport report = entry->run(options, tracer);

  const bool replay_agrees =
      report.check_digest == report.check_digest_replay;
  const bool expected_ok = expect_digest.empty() || report.digest == expect_digest;
  const bool correct = replay_agrees && expected_ok && report.failed == 0;
  std::uint64_t failed = report.failed;
  if (!replay_agrees || !expected_ok) failed += report.fixed_items;

  std::string trace_file;
  if (options.trace) {
    trace_file = out_dir + "/trace-" + entry->name + "-seed" +
                 std::to_string(options.seed) + ".json";
    CIM_CHECK(tracer.WriteChromeJson(trace_file));
  }

  std::printf(
      "{\"perfbench\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"threads\": %zu, \"usable_cpus\": %zu, \"aslr\": %s, "
      "\"digest\": \"%s\", "
      "\"check_digest\": \"%s\", \"check_digest_replay\": \"%s\", "
      "\"replay_threads\": %zu, "
      "\"expected_digest\": \"%s\", "
      "\"digest_check\": \"%s\", \"spans\": %zu, \"trace_file\": \"%s\"}}\n",
      entry->name, options.seed, entry->threads, cpus,
      (personality(0xFFFFFFFF) & ADDR_NO_RANDOMIZE) != 0 ? "false" : "true",
      report.digest.c_str(),
      report.check_digest.c_str(), report.check_digest_replay.c_str(),
      report.replay_threads,
      expect_digest.c_str(),
      !replay_agrees        ? "replay-mismatch"
      : !expected_ok        ? "expected-mismatch"
      : expect_digest.empty() ? "replay-agrees"
                              : "match",
      tracer.size(), trace_file.c_str());
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", report.attempted, failed);
  if (options.trace) {
    PrintMetrics(report.metrics, kPerLayer, std::size(kPerLayer), false);
  } else {
    PrintMetrics(report.metrics, kEndToEnd, std::size(kEndToEnd), true);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
