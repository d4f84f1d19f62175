// Shared plumbing for the perfbench workloads: wall-clock helpers, order
// statistics, the correctness digest, the span tracer behind the traced run
// and the metric record every workload fills in.
#pragma once

#include <sched.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "dpe/accelerator.h"
#include "nn/network.h"

namespace perfbench {

// Host (wall) clock, seconds since an arbitrary epoch. steady_clock.
[[nodiscard]] double NowSeconds();

// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double Quantile(std::vector<double> values, double q);
[[nodiscard]] inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Peak resident set of this process so far, in MB.
[[nodiscard]] double PeakRssMb();

// CPUs this process may run on (affinity mask, not the machine size).
[[nodiscard]] std::size_t UsableCpus();

// Pins the calling thread to one CPU of its original affinity mask at a
// time, round-robin, and restores the mask on destruction. On a shared VM
// some vCPUs are persistently slower than others (busy SMT siblings on the
// host): one thread left where the scheduler first put it ran
// stream-dataflow at either ~105k or ~70k payloads/s depending on the run
// (IQR/median 0.44 over 6 runs), and rotating per round gave 0.06.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void Pin(std::size_t round);

 private:
  std::vector<int> cpus_;  // empty when the mask could not be read
  cpu_set_t original_{};
};

// FNV-1a over the exact bits of every value added: two runs agree on the
// digest only if every output, cost and counter is bit-identical.
class Digest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  void Add(const cim::CostReport& c) {
    Add(c.latency_ns);
    Add(c.energy_pj);
    Add(c.bytes_moved);
    Add(c.operations);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }
  [[nodiscard]] std::string Hex() const;

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// Spans around the benchmark's calls into each layer, kept in memory and
// written as Chrome trace-event JSON (opens in Perfetto). Spans nest by
// call order on the benchmark thread; `request` tags serve spans with the
// request id they belong to. A disabled tracer records nothing.
class Tracer {
 public:
  struct Span {
    const char* name = "";  // a string literal
    double start_us = 0.0;
    double end_us = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = top level
    std::uint64_t request = 0;  // 0 = not a serve request span
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Tag the span with a request id learned during the call.
    void set_request(std::uint64_t request);

   private:
    Tracer* tracer_;  // null when tracing is off
    std::size_t index_ = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  // `name` must be a string literal (spans keep the pointer).
  [[nodiscard]] Scope Open(const char* name, std::uint64_t request = 0) {
    return Scope(enabled_ ? this : nullptr, name, request);
  }

  // Host durations (us) of every recorded span with this name.
  [[nodiscard]] std::vector<double> DurationsUs(std::string_view name) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  // Writes {"traceEvents": [...]} with one complete ("X") event for each of
  // the first kMaxWrittenSpans spans (the metrics use all of them).
  static constexpr std::size_t kMaxWrittenSpans = 50000;
  [[nodiscard]] bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  double origin_s_ = NowSeconds();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices of spans still running
};

// One metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// The end-to-end quantities every workload reports (README.md defines each
// per workload). Latencies are virtual (modelled hardware) nanoseconds.
struct EndToEnd {
  std::vector<double> setup_s;  // one entry per set-up repetition
  std::vector<double> items_per_s;  // one entry per timed round
  std::vector<double> model_latency_ns;
  double model_energy_pj_per_item = 0.0;
  double top1_agreement = 0.0;
  double max_rate_rps = 0.0;  // per virtual second
  std::uint64_t attempted = 0;
  std::uint64_t unsuccessful = 0;  // failed, refused, shed or degraded
};
// setup_s, items_per_s, model_latency_us_{p50,p99},
// model_energy_pj_per_item, top1_agreement, max_rate_rps, success_fraction
// and peak_rss_mb.
[[nodiscard]] MetricMap EndToEndMetrics(const EndToEnd& e);

// What a workload hands back to main: its metrics (end-to-end when
// untraced, per-layer when traced), digests and operation counts.
struct WorkloadReport {
  MetricMap metrics;
  // Digest of the whole fixed work (compared with expected_digests.json).
  std::string digest;
  // Digest of a prefix of the fixed work at the workload's thread count and
  // of its replay on a fresh instance at replay_threads (one thread, or two
  // for a one-thread workload); they must be equal.
  std::string check_digest;
  std::string check_digest_replay;
  std::size_t replay_threads = 1;
  std::uint64_t attempted = 0;
  // Operations that errored or whose output disagreed with the reference.
  std::uint64_t failed = 0;
  // Items in the fixed, digested work (counted failed on a digest mismatch).
  std::uint64_t fixed_items = 0;
  std::vector<std::string> notes;
};

// Runs prepare() then round() (which returns items completed) until
// `seconds` of wall time have passed, at least `min_rounds` times; returns
// items per host second of each round, timing round() only. Each round runs
// on the next CPU (CpuRotation); threads the workload created before stay
// unpinned. With `tracer` given, rounds alternate untraced / traced and the
// traced rounds' rates go to *traced_rates.
template <typename Prepare, typename Round>
std::vector<double> TimeRounds(double seconds, std::size_t min_rounds,
                               Prepare&& prepare, Round&& round,
                               Tracer* tracer = nullptr,
                               std::vector<double>* traced_rates = nullptr) {
  std::vector<double> rates;
  CpuRotation rotation;
  const double start = NowSeconds();
  for (std::size_t i = 0;
       i < min_rounds || NowSeconds() - start < seconds; ++i) {
    rotation.Pin(i);
    const bool traced = tracer != nullptr && i % 2 == 1;
    if (tracer != nullptr) tracer->set_enabled(traced);
    prepare();
    const double t0 = NowSeconds();
    const double items = round();
    const double dt = NowSeconds() - t0;
    (traced ? *traced_rates : rates).push_back(items / dt);
  }
  if (tracer != nullptr) tracer->set_enabled(true);
  return rates;
}

// 1 - traced/untraced median throughput: the share of throughput tracing
// costs (noise can make it slightly negative).
[[nodiscard]] double TraceOverhead(const std::vector<double>& untraced,
                                   const std::vector<double>& traced);

// `count` inputs of `dim` values uniform in [0, 1), each kept only when the
// float model's top-1 output leads the runner-up by at least one standard
// deviation of its outputs: top-1 agreement then measures the analog path's
// fidelity, not ties the float model itself barely resolves.
[[nodiscard]] std::vector<cim::nn::Tensor> ConfidentInputs(
    const cim::nn::Network& net, std::size_t dim, std::size_t count,
    std::uint64_t seed);

// The crossbar tiles a dense MLP of these widths maps to (DpeAccelerator
// splits each layer into rows x cols tiles; a guard column takes one
// physical column of each). `equivalents` weighs each tile by the share of
// the array it drives, so equivalents x (time of a full-array MVM) estimates
// the kernel time one inference costs.
struct TileCount {
  std::uint64_t tiles = 0;
  double equivalents = 0.0;
};
[[nodiscard]] TileCount CountTiles(const std::vector<std::size_t>& widths,
                                   std::size_t rows, std::size_t cols,
                                   bool guard_column);

// A result is good when every output is finite and the accelerator flagged
// no fault (the inference workloads inject none).
[[nodiscard]] bool Good(const cim::dpe::InferResult& r);

// argmax of a vector-like (first index wins ties).
template <typename V>
std::size_t ArgMax(const V& v) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

}  // namespace perfbench
