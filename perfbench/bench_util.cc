#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>

#include "common/contracts.h"
#include "common/rng.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof original_, &original_);
}

void CpuRotation::Pin(std::size_t round) {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[round % cpus_.size()], &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
  return buf;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name,
                     std::uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.id = tracer_->spans_.size() + 1;
  span.parent =
      tracer_->open_.empty() ? 0 : tracer_->spans_[tracer_->open_.back()].id;
  span.request = request;
  span.start_us = (NowSeconds() - tracer_->origin_s_) * 1e6;
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_us = (NowSeconds() - tracer_->origin_s_) * 1e6;
  tracer_->open_.pop_back();
}

void Tracer::Scope::set_request(std::uint64_t request) {
  if (tracer_ != nullptr) tracer_->spans_[index_].request = request;
}

std::vector<double> Tracer::DurationsUs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  const std::size_t written = std::min(spans_.size(), kMaxWrittenSpans);
  for (std::size_t i = 0; i < written; ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %" PRIu64
                 ", \"parent\": %" PRIu64,
                 s.name, s.start_us, s.end_us - s.start_us, s.id,
                 s.parent);
    if (s.request != 0) {
      std::fprintf(out, ", \"request\": %" PRIu64, s.request);
    }
    std::fprintf(out, "}}%s\n", i + 1 < written ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

MetricMap EndToEndMetrics(const EndToEnd& e) {
  MetricMap m;
  m["setup_s"] = {Median(e.setup_s), "s"};
  m["items_per_s"] = {Median(e.items_per_s), "1/s"};
  m["model_latency_us_p50"] = {Quantile(e.model_latency_ns, 0.50) * 1e-3,
                               "model_us"};
  m["model_latency_us_p99"] = {Quantile(e.model_latency_ns, 0.99) * 1e-3,
                               "model_us"};
  m["model_energy_pj_per_item"] = {e.model_energy_pj_per_item, "pJ"};
  m["top1_agreement"] = {e.top1_agreement, "fraction"};
  m["max_rate_rps"] = {e.max_rate_rps, "1/model_s"};
  m["success_fraction"] = {
      e.attempted > 0 ? 1.0 - static_cast<double>(e.unsuccessful) /
                                  static_cast<double>(e.attempted)
                      : 0.0,
      "fraction"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  return m;
}

std::vector<cim::nn::Tensor> ConfidentInputs(const cim::nn::Network& net,
                                             std::size_t dim,
                                             std::size_t count,
                                             std::uint64_t seed) {
  cim::Rng rng(seed);
  std::vector<cim::nn::Tensor> inputs;
  while (inputs.size() < count) {
    cim::nn::Tensor t({dim});
    for (int attempt = 0;; ++attempt) {
      CIM_CHECK(attempt < 10000);
      for (auto& v : t.vec()) v = rng.Uniform(0.0, 1.0);
      auto out = cim::nn::Forward(net, t);
      CIM_CHECK(out.ok());
      std::vector<double> y = out->vec();
      cim::RunningStat stat;
      for (const double v : y) stat.Add(v);
      std::partial_sort(y.begin(), y.begin() + 2, y.end(),
                        std::greater<double>());
      if (y[0] - y[1] >= std::sqrt(stat.variance())) break;
    }
    inputs.push_back(std::move(t));
  }
  return inputs;
}

TileCount CountTiles(const std::vector<std::size_t>& widths,
                     std::size_t rows, std::size_t cols, bool guard_column) {
  TileCount count;
  const std::size_t logical_cols = guard_column ? cols - 1 : cols;
  for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
    for (std::size_t r0 = 0; r0 < widths[l]; r0 += rows) {
      const std::size_t r = std::min(rows, widths[l] - r0);
      for (std::size_t c0 = 0; c0 < widths[l + 1]; c0 += logical_cols) {
        const std::size_t c = std::min(logical_cols, widths[l + 1] - c0) +
                              (guard_column ? 1 : 0);
        ++count.tiles;
        count.equivalents += static_cast<double>(r * c) /
                             static_cast<double>(rows * cols);
      }
    }
  }
  return count;
}

bool Good(const cim::dpe::InferResult& r) {
  for (const double v : r.output.vec()) {
    if (!std::isfinite(v)) return false;
  }
  return r.fault_report.clean();
}

double TraceOverhead(const std::vector<double>& untraced,
                     const std::vector<double>& traced) {
  const double base = Median(untraced);
  return base > 0.0 ? 1.0 - Median(traced) / base : 0.0;
}

}  // namespace perfbench
