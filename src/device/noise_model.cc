#include "device/noise_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <mutex>
#include <numbers>
#include <unordered_map>

#include "common/contracts.h"

namespace cim::device {
namespace {

// Acklam's inverse-normal-CDF rational approximations (central region and
// tails), relative error ~1.15e-9 — far below the resolution of any
// distributional gate this sampler feeds.
constexpr double kA0 = -3.969683028665376e+01;
constexpr double kA1 = 2.209460984245205e+02;
constexpr double kA2 = -2.759285104469687e+02;
constexpr double kA3 = 1.383577518672690e+02;
constexpr double kA4 = -3.066479806614716e+01;
constexpr double kA5 = 2.506628277459239e+00;

constexpr double kB0 = -5.447609879822406e+01;
constexpr double kB1 = 1.615858368580409e+02;
constexpr double kB2 = -1.556989798598866e+02;
constexpr double kB3 = 6.680131188771972e+01;
constexpr double kB4 = -1.328068155288572e+01;

constexpr double kC0 = -7.784894002430293e-03;
constexpr double kC1 = -3.223964580411365e-01;
constexpr double kC2 = -2.400758277161838e+00;
constexpr double kC3 = -2.549732539343734e+00;
constexpr double kC4 = 4.374664141464968e+00;
constexpr double kC5 = 2.938163982698783e+00;

constexpr double kD0 = 7.784695709041462e-03;
constexpr double kD1 = 3.224671290700398e-01;
constexpr double kD2 = 2.445134137142996e+00;
constexpr double kD3 = 3.754408661907416e+00;

// The central rational approximation is accurate for p in [kPLow, kPHigh]
// — |u - 0.5| <= 0.47575, ~95.15% of uniform draws; outside it the tail
// form takes over.
constexpr double kPLow = 0.02425;
constexpr double kPHigh = 1.0 - kPLow;

// The helpers below build the noise tile (one pass per sigma per process)
// and back the detail:: test hooks; they are not on the per-cell serving
// path, which reads the tile in place.

// Central-region rational polynomial; accurate for |q| <= 0.5 - kPLow
// (the region InverseNormalCdfImpl routes here).
[[gnu::always_inline]] inline double CentralInverseCdf(double q) {
  const double r = q * q;
  const double num =
      (((((kA0 * r + kA1) * r + kA2) * r + kA3) * r + kA4) * r + kA5) * q;
  const double den =
      ((((kB0 * r + kB1) * r + kB2) * r + kB3) * r + kB4) * r + 1.0;
  return num / den;
}

inline double TailInverseCdf(double u) {
  // Lower tail; the upper tail is the mirror image.
  const bool upper = u > 0.5;
  const double p = upper ? 1.0 - u : u;
  const double q = std::sqrt(-2.0 * std::log(p));
  const double x =
      (((((kC0 * q + kC1) * q + kC2) * q + kC3) * q + kC4) * q + kC5) /
      ((((kD0 * q + kD1) * q + kD2) * q + kD3) * q + 1.0);
  return upper ? -x : x;
}

[[gnu::always_inline]] inline double CounterUniformImpl(std::uint64_t stream,
                                                        std::uint64_t index) {
  // Splitmix64 finalizer over (stream, index): no serial dependency
  // between cells. The +0.5 centers the 53-bit lattice inside (0, 1) —
  // never exactly 0 or 1.
  const std::uint64_t z = DeriveSeed(stream, index);
  return (static_cast<double>(z >> 11) + 0.5) * 0x1.0p-53;
}

[[gnu::always_inline]] inline double InverseNormalCdfImpl(double u) {
  if (u < kPLow || u > kPHigh) [[unlikely]] {
    return TailInverseCdf(u);
  }
  return CentralInverseCdf(u - 0.5);
}

// The kFastNoise tile for `sigma`, a pure function of it, followed by its
// wrap tail.
std::vector<double> BuildTile(double sigma) {
  constexpr std::size_t kTileSize = NoiseModel::kTileSize;
  static_assert(kMaxLineCells <= kTileSize,
                "the wrap tail repeats the tile's head");
  std::vector<double> tile(kTileSize + kMaxLineCells);
  // Midpoint-quantile lattice: tile[i] = exp(sigma * Phi^-1((i+0.5)/N)).
  // Its empirical CDF tracks the contract distribution within 1/(2N) —
  // orders of magnitude below the KS gate — and unlike an iid-sampled pool
  // it carries no sampling error of its own. Built once per sigma with
  // full-accuracy libm exp; serving never touches libm again.
  for (std::size_t i = 0; i < kTileSize; ++i) {
    const double u = (static_cast<double>(i) + 0.5) /
                     static_cast<double>(kTileSize);
    tile[i] = std::exp(sigma * InverseNormalCdfImpl(u));
  }
  // Fisher-Yates with counter-based hashes (fixed seed: the tile is a
  // deterministic function of sigma alone; all run-to-run variation comes
  // from the per-call rotation draw). After the shuffle any contiguous
  // window is a simple random sample of the lattice, so a row's factors
  // are exchangeable draws from the contract distribution.
  constexpr std::uint64_t kShuffleSeed = 0x9D5C0F2B43E18A67ULL;
  for (std::size_t i = kTileSize - 1; i > 0; --i) {
    const std::size_t j = static_cast<std::size_t>(
        DeriveSeed(kShuffleSeed, static_cast<std::uint64_t>(i)) % (i + 1));
    std::swap(tile[i], tile[j]);
  }
  // The wrap tail: a window at rotation r reads tile[r, r + n) in place for
  // any n <= kMaxLineCells, exactly the entries a wrap-around read of the
  // lattice would.
  std::copy_n(tile.begin(), kMaxLineCells, tile.begin() + kTileSize);
  return tile;
}

// The process-wide tile for `sigma`: the live one if any model still holds
// it, else a fresh build. Keyed by sigma's bit pattern (the builder's only
// input), and guarded by one mutex because accelerators — and so their
// crossbars' noise models — are created from pool threads. The build runs
// under the lock, so concurrent first users of a sigma wait for one build
// instead of racing several.
std::shared_ptr<const std::vector<double>> SharedTile(double sigma) {
  static std::mutex mu;
  static std::unordered_map<std::uint64_t,
                            std::weak_ptr<const std::vector<double>>>
      tiles;
  const auto key = std::bit_cast<std::uint64_t>(sigma);
  const std::lock_guard<std::mutex> lock(mu);
  if (auto live = tiles[key].lock()) return live;
  auto tile = std::make_shared<const std::vector<double>>(BuildTile(sigma));
  // Forget tiles nobody holds any more, so the cache itself stays bounded
  // by the live sigma values too.
  std::erase_if(tiles,
                [](const auto& entry) { return entry.second.expired(); });
  tiles[key] = tile;
  return tile;
}

}  // namespace

namespace detail {

// Out-of-line wrappers so tests can pin the building blocks; the tile
// builder uses the always-inline implementations above.

double InverseNormalCdf(double u) {
  CIM_DCHECK(u > 0.0 && u < 1.0);
  return InverseNormalCdfImpl(u);
}

double CounterUniform(std::uint64_t stream, std::uint64_t index) {
  return CounterUniformImpl(stream, index);
}

}  // namespace detail

std::string KernelPolicyName(KernelPolicy policy) {
  switch (policy) {
    case KernelPolicy::kReference:
      return "reference";
    case KernelPolicy::kFastBitExact:
      return "fast-bit-exact";
    case KernelPolicy::kFastNoise:
      return "fast-noise";
  }
  return "unknown";
}

NoiseModel::NoiseModel(double sigma, KernelPolicy policy)
    : sigma_(sigma), policy_(policy) {
  if (policy_ == KernelPolicy::kFastNoise && enabled()) {
    tile_ = SharedTile(sigma_);
  }
}

void NoiseModel::FillFactors(Rng& rng, double* out, std::size_t n_used,
                             std::size_t n_total) const {
  const double* factors = Factors(rng, out, n_used, n_total);
  if (factors != out) std::copy_n(factors, n_used, out);
}

void NoiseModel::FillExact(Rng& rng, double* out, std::size_t n_used,
                           std::size_t n_total) const {
  // Bit-exact contract: reproduce the reference kernel's LogNormal stream
  // draw for draw; the unsensed tail only advances it.
  for (std::size_t i = 0; i < n_used; ++i) {
    out[i] = rng.LogNormal(0.0, sigma_);
  }
  rng.DiscardGaussians(n_total - n_used);
}

double NoiseModel::LogNormalCdf(double x, double mu, double sigma) {
  if (x <= 0.0) return 0.0;
  CIM_DCHECK(sigma > 0.0);
  return 0.5 * std::erfc(-(std::log(x) - mu) /
                         (sigma * std::numbers::sqrt2));
}

NoiseModel::EquivalenceReport NoiseModel::CheckEquivalence(
    const std::vector<double>& factors) const {
  EquivalenceReport report;
  report.samples = factors.size();
  if (factors.empty() || sigma_ <= 0.0) return report;
  const auto n = static_cast<double>(factors.size());

  // One-sample Kolmogorov-Smirnov against the contract distribution
  // LogNormal(0, sigma), alpha = 0.01 (c = 1.628).
  std::vector<double> sorted = factors;
  std::sort(sorted.begin(), sorted.end());
  double d = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double cdf = LogNormalCdf(sorted[i], 0.0, sigma_);
    const double lo = cdf - static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n - cdf;
    d = std::max({d, lo, hi});
  }
  report.ks_statistic = d;
  report.ks_threshold = 1.628 / std::sqrt(n);
  report.ks_pass = d <= report.ks_threshold;

  // Moment tests on ln(factor) ~ Normal(0, sigma^2): the sample mean is
  // Normal(0, sigma^2/n) and the sample variance has standard error
  // ~ sigma^2 * sqrt(2/(n-1)); both bounds use z = 3.29 (two-sided 0.1%).
  constexpr double kZ = 3.29;
  double sum = 0.0;
  for (const double f : factors) sum += std::log(f);
  const double mean = sum / n;
  double ss = 0.0;
  for (const double f : factors) {
    const double dev = std::log(f) - mean;
    ss += dev * dev;
  }
  const double var = ss / (n - 1.0);
  report.mean_log = mean;
  report.mean_log_bound = kZ * sigma_ / std::sqrt(n);
  report.var_log = var;
  report.var_log_bound = kZ * sigma_ * sigma_ * std::sqrt(2.0 / (n - 1.0));
  report.moments_pass =
      std::abs(mean) <= report.mean_log_bound &&
      std::abs(var - sigma_ * sigma_) <= report.var_log_bound;
  return report;
}

}  // namespace cim::device
