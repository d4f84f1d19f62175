// stream-dataflow: the paper's own Figs 3-5 model (arch::Fabric). An 8x8
// mesh carries 16 static multi-hop streams through micro-units running
// two-instruction scalar programs, with link encryption on. Payloads are
// injected open loop at a fixed virtual rate, and authenticated SendProgram
// code packets periodically reprogram tiles mid-run. The per-packet Inject
// + DeliveryHandler NoC path, the event queue and the link cipher do nearly
// all the work; no crossbar runs. Every round replays the same schedule on
// a fresh fabric, so every round must digest the same.
#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "arch/fabric.h"
#include "common/contracts.h"
#include "common/rng.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cim::DeriveSeed;
using cim::Rng;
using cim::TimeNs;
using cim::arch::Fabric;
using cim::arch::OpCode;
using cim::arch::Program;
using cim::noc::NodeId;

constexpr std::uint16_t kMesh = 8;
constexpr std::size_t kStreams = 16;
constexpr std::size_t kPathTiles = 6;  // 5 NoC transfers per payload
constexpr std::size_t kPayloadLen = 8;
constexpr std::size_t kPayloadBytes = 4 + 8 * kPayloadLen;  // serialized
constexpr std::size_t kPayloads = 4000;  // per round
constexpr double kMeanGapNs = 40.0;      // open-loop injection rate 25M/s
constexpr std::size_t kReprogramEvery = 100;
// The layout (stream paths, tile programs) is fixed; the seed makes the
// payloads, injection times and reprogramming targets.
constexpr std::uint64_t kLayoutSeed = 0xDA7AF10;
const NodeId kController{0, 0};

// Each tile computes x -> (x + o) / 2 elementwise with a dyadic offset o,
// in one of two instruction orders. Halving is exact, so both forms give
// bit-identical results: reprogramming changes the code, never the answer.
Program Form(double offset, bool add_first) {
  if (add_first) {
    return {{OpCode::kAddScalar, offset}, {OpCode::kMulScalar, 0.5}};
  }
  return {{OpCode::kMulScalar, 0.5}, {OpCode::kAddScalar, 0.5 * offset}};
}

struct Layout {
  std::vector<std::vector<NodeId>> paths;
  std::vector<double> offset;  // per tile, row-major
};

Layout MakeLayout() {
  Layout layout;
  Rng rng(kLayoutSeed);
  const auto random_node = [&] {
    return NodeId{static_cast<std::uint16_t>(rng.NextBounded(kMesh)),
                  static_cast<std::uint16_t>(rng.NextBounded(kMesh))};
  };
  for (std::size_t s = 0; s < kStreams; ++s) {
    std::vector<NodeId> path = {random_node()};
    while (path.size() < kPathTiles) {
      const NodeId n = random_node();
      if (n.x != path.back().x || n.y != path.back().y) path.push_back(n);
    }
    layout.paths.push_back(std::move(path));
  }
  for (std::size_t t = 0; t < std::size_t{kMesh} * kMesh; ++t) {
    layout.offset.push_back(static_cast<double>(1 + rng.NextBounded(7)) / 8);
  }
  return layout;
}

std::size_t TileIndex(NodeId n) {
  return static_cast<std::size_t>(n.y) * kMesh + n.x;
}

struct Injection {
  double at_ns = 0.0;
  std::size_t stream = 0;
  std::vector<double> payload;
  std::vector<double> expected;  // the reference result
};

struct CodeLoad {
  std::size_t before_payload = 0;
  NodeId tile;
  bool add_first = false;
};

struct Schedule {
  std::vector<Injection> injections;
  std::vector<CodeLoad> code_loads;
};

Schedule MakeSchedule(const Layout& layout, std::uint64_t seed) {
  Schedule sched;
  Rng rng(DeriveSeed(seed, 2));
  double t = 0.0;
  for (std::size_t i = 0; i < kPayloads; ++i) {
    Injection in;
    t += kMeanGapNs * rng.Uniform(0.5, 1.5);
    in.at_ns = t;
    in.stream = rng.NextBounded(kStreams);
    for (std::size_t k = 0; k < kPayloadLen; ++k) {
      in.payload.push_back(rng.Uniform(0.0, 1.0));
    }
    in.expected = in.payload;
    for (const NodeId n : layout.paths[in.stream]) {
      for (double& v : in.expected) v = (v + layout.offset[TileIndex(n)]) * 0.5;
    }
    sched.injections.push_back(std::move(in));
    if (i % kReprogramEvery == kReprogramEvery - 1) {
      const auto& path = layout.paths[rng.NextBounded(kStreams)];
      sched.code_loads.push_back(
          {i + 1, path[rng.NextBounded(path.size())],
           sched.code_loads.size() % 2 == 0});
    }
  }
  return sched;
}

std::uint64_t KeyOf(std::size_t stream, const std::vector<double>& v) {
  Digest d;
  d.Add(static_cast<std::uint64_t>(stream));
  for (const double x : v) d.Add(x);
  return d.value();
}

struct RoundLog {
  Digest digest;
  std::uint64_t completed = 0;
  std::uint64_t matched = 0;
  std::uint64_t stream_failed = 0;
  std::uint64_t rejected_injections = 0;
  std::uint64_t rejected_code_loads = 0;
  std::uint64_t call_errors = 0;
  std::vector<double> latency_ns;
  double energy_pj = 0.0;
  double noc_energy_pj = 0.0;
  double makespan_ns = 0.0;
  cim::noc::NocTelemetry noc;
};

std::unique_ptr<Fabric> Create(const Layout& layout, Tracer& tracer) {
  auto span = tracer.Open("arch.Create");
  cim::arch::FabricParams p;
  p.mesh.width = kMesh;
  p.mesh.height = kMesh;
  p.encrypt_data = true;
  p.authenticate_code = true;
  auto fabric = Fabric::Create(p);
  CIM_CHECK(fabric.ok());
  for (std::uint16_t y = 0; y < kMesh; ++y) {
    for (std::uint16_t x = 0; x < kMesh; ++x) {
      auto tile = (*fabric)->TileAt({x, y});
      CIM_CHECK(tile.ok());
      CIM_CHECK((*tile)
                    ->micro_unit(0)
                    .LoadProgram(Form(layout.offset[TileIndex({x, y})], false))
                    .ok());
    }
  }
  for (std::size_t s = 0; s < kStreams; ++s) {
    CIM_CHECK((*fabric)->ConfigureStream(s + 1, layout.paths[s]).ok());
  }
  return std::move(fabric.value());
}

RoundLog RunSchedule(Fabric& fabric, const Layout& layout,
                     const Schedule& sched, Tracer& tracer) {
  RoundLog log;
  // Reference results still owed, keyed by (stream, exact output bits).
  std::map<std::uint64_t, std::vector<std::size_t>> owed;
  for (std::size_t i = sched.injections.size(); i-- > 0;) {
    const Injection& in = sched.injections[i];
    owed[KeyOf(in.stream, in.expected)].push_back(i);
  }
  for (std::size_t s = 0; s < kStreams; ++s) {
    CIM_CHECK(fabric
                  .SetStreamSink(
                      s + 1,
                      [&, s](std::vector<double> payload, TimeNs done) {
                        ++log.completed;
                        log.digest.Add(static_cast<std::uint64_t>(s));
                        log.digest.Add(done.ns);
                        for (const double v : payload) log.digest.Add(v);
                        auto it = owed.find(KeyOf(s, payload));
                        if (it == owed.end() || it->second.empty()) return;
                        const Injection& in =
                            sched.injections[it->second.back()];
                        it->second.pop_back();
                        if (in.expected != payload) return;
                        ++log.matched;
                        log.latency_ns.push_back(done.ns - in.at_ns);
                        log.makespan_ns = std::max(log.makespan_ns, done.ns);
                      })
                  .ok());
  }
  cim::EventQueue& queue = fabric.queue();
  std::size_t next_code = 0;
  for (std::size_t i = 0; i < sched.injections.size(); ++i) {
    const Injection& in = sched.injections[i];
    {
      auto span = tracer.Open("arch.RunUntil");
      queue.RunUntil(TimeNs(in.at_ns));
    }
    while (next_code < sched.code_loads.size() &&
           sched.code_loads[next_code].before_payload == i) {
      const CodeLoad& c = sched.code_loads[next_code++];
      auto span = tracer.Open("arch.SendProgram");
      if (!fabric
               .SendProgram(kController, c.tile, 0,
                            Form(layout.offset[TileIndex(c.tile)],
                                 c.add_first))
               .ok()) {
        ++log.call_errors;
      }
    }
    auto span = tracer.Open("arch.InjectData");
    if (!fabric.InjectData(in.stream + 1, in.payload).ok()) {
      ++log.call_errors;
    }
  }
  {
    auto span = tracer.Open("arch.drain");
    queue.Run();
  }
  for (std::size_t s = 0; s < kStreams; ++s) {
    const cim::arch::StreamStats* st = fabric.StatsFor(s + 1);
    CIM_CHECK(st != nullptr);
    log.stream_failed += st->failed;
    log.digest.Add(st->injected);
    log.digest.Add(st->completed);
    log.digest.Add(st->failed);
    log.digest.Add(st->end_to_end_latency_ns.mean());
    log.digest.Add(st->compute_cost);
  }
  log.rejected_injections = fabric.rejected_injections();
  log.rejected_code_loads = fabric.rejected_code_loads();
  log.noc = fabric.noc().telemetry();
  const cim::CostReport total = fabric.TotalCost();
  log.energy_pj = total.energy_pj;
  log.noc_energy_pj = log.noc.cost.energy_pj;
  log.digest.Add(total);
  log.digest.Add(log.noc.injected);
  log.digest.Add(log.noc.delivered);
  log.digest.Add(log.noc.dropped);
  log.digest.Add(log.noc.rerouted_hops);
  log.digest.Add(log.rejected_injections);
  log.digest.Add(log.rejected_code_loads);
  log.digest.Add(queue.now().ns);
  return log;
}

// The data packets of one round for the NoC probe: hop h of a payload is
// released at its injection time plus h mean hop latencies, so the replay
// sees the workload's spacing rather than an artificial burst.
NocPattern Pattern(const Layout& layout, const Schedule& sched) {
  constexpr double kHopSpacingNs = 60.0;
  NocPattern pattern;
  pattern.width = kMesh;
  pattern.height = kMesh;
  std::uint64_t id = 1;
  for (const Injection& in : sched.injections) {
    const auto& path = layout.paths[in.stream];
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      NocPattern::Window w;
      w.at_ns = in.at_ns + static_cast<double>(h) * kHopSpacingNs;
      cim::noc::Packet p;
      p.id = id++;
      p.stream_id = in.stream + 1;
      p.source = path[h];
      p.destination = path[h + 1];
      p.payload_bytes = kPayloadBytes;
      p.inline_payload.resize(kPayloadBytes);
      w.packets.push_back(std::move(p));
      pattern.windows.push_back(std::move(w));
    }
  }
  std::stable_sort(pattern.windows.begin(), pattern.windows.end(),
                   [](const NocPattern::Window& a, const NocPattern::Window& b) {
                     return a.at_ns < b.at_ns;
                   });
  return pattern;
}

}  // namespace

WorkloadReport RunStreamDataflow(const RunOptions& options, Tracer& tracer) {
  const Layout layout = MakeLayout();
  const Schedule sched = MakeSchedule(layout, options.seed);

  WorkloadReport report;
  EndToEnd e2e;

  std::unique_ptr<Fabric> fabric;
  RoundLog fixed;
  std::size_t round = 0;
  const auto prepare = [&] {
    fabric.reset();
    const double t0 = NowSeconds();
    fabric = Create(layout, tracer);
    e2e.setup_s.push_back(NowSeconds() - t0);
  };
  const auto one_round = [&] {
    RoundLog log = RunSchedule(*fabric, layout, sched, tracer);
    const std::uint64_t ops = kPayloads + sched.code_loads.size();
    report.attempted += ops;
    report.failed += (kPayloads - log.matched) + log.rejected_code_loads +
                     log.call_errors;
    const double completed = static_cast<double>(log.completed);
    if (round == 1) report.check_digest_replay = log.digest.Hex();
    if (round++ == 0) {
      fixed = std::move(log);
    } else if (log.digest.Hex() != fixed.digest.Hex()) {
      report.failed += ops;  // a replay diverged
      report.notes.push_back("round " + std::to_string(round - 1) +
                             " digest differs from round 0");
    }
    return completed;
  };
  std::vector<double> traced_rates;
  e2e.items_per_s = TimeRounds(options.seconds, 2, prepare, one_round,
                               options.trace ? &tracer : nullptr,
                               &traced_rates);
  // One thread is this workload's thread count: the check compares round 0
  // with its replay in round 1.
  report.digest = fixed.digest.Hex();
  report.check_digest = report.digest;
  report.fixed_items = kPayloads + sched.code_loads.size();

  e2e.model_latency_ns = fixed.latency_ns;
  e2e.model_energy_pj_per_item =
      fixed.energy_pj / static_cast<double>(fixed.completed);
  e2e.top1_agreement = static_cast<double>(fixed.matched) / kPayloads;
  e2e.max_rate_rps = static_cast<double>(fixed.matched) /
                     ((fixed.makespan_ns - sched.injections.front().at_ns) *
                      1e-9);
  e2e.attempted = kPayloads;
  e2e.unsuccessful = kPayloads - fixed.matched;
  MetricMap e2e_metrics = EndToEndMetrics(e2e);
  if (!options.trace) {
    report.metrics = std::move(e2e_metrics);
    return report;
  }

  MetricMap& m = report.metrics;
  const NocPattern pattern = Pattern(layout, sched);
  AddLayerProbes(&pattern, kPayloadBytes, &m);
  const auto us = [&](const char* span) { return tracer.DurationsUs(span); };
  m["arch.inject_us.p50"] = {Median(us("arch.InjectData")), "us"};
  m["arch.drain_ms"] = {Median(us("arch.drain")) * 1e-3, "ms"};
  m["arch.send_program_us"] = {Median(us("arch.SendProgram")), "us"};
  m["arch.streams.completed"] = {static_cast<double>(fixed.completed),
                                 "count"};
  m["arch.streams.failed"] = {static_cast<double>(fixed.stream_failed),
                              "count"};
  m["arch.rejected_injections"] = {
      static_cast<double>(fixed.rejected_injections), "count"};
  m["arch.rejected_code_loads"] = {
      static_cast<double>(fixed.rejected_code_loads), "count"};
  m["arch.compute_energy_share"] = {
      (fixed.energy_pj - fixed.noc_energy_pj) / fixed.energy_pj, "fraction"};
  const cim::noc::NocTelemetry& t = fixed.noc;
  m["noc.injected"] = {static_cast<double>(t.injected), "count"};
  m["noc.delivered"] = {static_cast<double>(t.delivered), "count"};
  m["noc.dropped"] = {static_cast<double>(t.dropped), "count"};
  m["noc.rerouted_hops"] = {static_cast<double>(t.rerouted_hops), "count"};
  m["noc.delivered_fraction"] = {
      static_cast<double>(t.delivered) / static_cast<double>(t.injected),
      "fraction"};
  m["noc.latency_ns.mean"] = {t.latency_ns.mean(), "model_ns"};
  m["noc.latency_ns.max"] = {t.latency_ns.max(), "model_ns"};
  m["trace.overhead_fraction"] = {
      TraceOverhead(e2e.items_per_s, traced_rates), "fraction"};
  return report;
}

}  // namespace perfbench
