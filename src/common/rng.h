// Deterministic pseudo-random number generation for reproducible simulation.
//
// All stochastic components of the simulator (device noise, fault injection,
// workload generation, traffic) draw from an explicitly seeded Rng so that
// every experiment is bit-for-bit reproducible. The core generator is
// xoshiro256** (public domain, Blackman & Vigna), chosen over std::mt19937
// for speed and for a guaranteed cross-platform stream.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numbers>

namespace cim {

// Deterministically derive an independent seed for stream `index` of a
// root seed — the splitmix64 finalizer over the combined pair, so nearby
// indices land in unrelated regions of seed space. Used to give every
// engine tile its own noise stream (root seed + tile index) and every MVM
// invocation within a tile its own sub-stream (tile seed + call index):
// results then depend only on *which* call ran, never on which thread ran
// it or in what order — the property the batched inference runtime's
// bit-identical-at-any-thread-count guarantee rests on.
[[nodiscard]] constexpr std::uint64_t DeriveSeed(std::uint64_t root,
                                                 std::uint64_t index) {
  std::uint64_t z = root + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  // SplitMix64 expansion of a single seed into the full 256-bit state, as
  // recommended by the xoshiro authors.
  void Seed(std::uint64_t seed) {
    for (auto& word : state_) {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
    have_gaussian_ = false;
  }

  // Derive an independent child stream (used to give each simulated
  // component its own stream without cross-coupling).
  [[nodiscard]] Rng Fork() { return Rng(NextU64() ^ 0xd1b54a32d192ed03ULL); }

  std::uint64_t NextU64() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  // Uniform integer in [0, bound) without modulo bias (rejection sampling
  // above the largest multiple of bound).
  std::uint64_t NextBounded(std::uint64_t bound) {
    if (bound == 0) return 0;
    const std::uint64_t threshold = (0 - bound) % bound;
    while (true) {
      const std::uint64_t r = NextU64();
      if (r >= threshold) return r % bound;
    }
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    NextBounded(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  bool Bernoulli(double p) { return NextDouble() < p; }

  // Standard normal via Box-Muller with caching of the second variate.
  double Gaussian() {
    if (have_gaussian_) {
      have_gaussian_ = false;
      return cached_gaussian_;
    }
    double u1 = NextDouble();
    while (u1 <= std::numeric_limits<double>::min()) u1 = NextDouble();
    const double u2 = NextDouble();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * std::numbers::pi * u2;
    cached_gaussian_ = radius * std::sin(angle);
    have_gaussian_ = true;
    return radius * std::cos(angle);
  }

  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  // Leave the generator exactly as `k` calls to Gaussian() would, without
  // paying for the transcendentals of the variates nobody reads: the cached
  // variate goes first, whole Box-Muller pairs only advance the uniform
  // stream (rejection loop included), and an odd remainder evaluates its
  // pair in full so the cached second variate the next caller reads is
  // exact.
  void DiscardGaussians(std::size_t k) {
    if (k == 0) return;
    if (have_gaussian_) {
      have_gaussian_ = false;
      --k;
    }
    for (; k >= 2; k -= 2) {
      double u1 = NextDouble();
      while (u1 <= std::numeric_limits<double>::min()) u1 = NextDouble();
      NextU64();  // u2
    }
    if (k == 1) Gaussian();
  }

  // Lognormal parameterized by the underlying normal's mu/sigma; used for
  // memristor read-noise modelling where conductance variation is
  // multiplicative.
  double LogNormal(double mu, double sigma) {
    return std::exp(Gaussian(mu, sigma));
  }

  // Exponential with the given rate (events per unit time); used for fault
  // inter-arrival times.
  double Exponential(double rate) {
    double u = NextDouble();
    while (u <= 0.0) u = NextDouble();
    return -std::log(u) / rate;
  }

  // Zipf-distributed rank in [1, n]; used by KVS / search workload
  // generators for skewed key popularity. Rejection-inversion sampling.
  std::uint64_t Zipf(std::uint64_t n, double skew) {
    if (n <= 1) return 1;
    // Simple inverse-CDF over precomputable harmonic weights would need
    // state per (n, skew); instead use the rejection method of Devroye.
    // Non-integer exponent: this is a real power, not a shift in disguise.
    // cimlint: allow(pow2-in-hot-path)
    const double b = std::pow(2.0, skew - 1.0);
    while (true) {
      const double u = NextDouble();
      const double v = NextDouble();
      const double x = std::floor(std::pow(u, -1.0 / (skew - 1.0)));
      const double t = std::pow(1.0 + 1.0 / x, skew - 1.0);
      if (x <= static_cast<double>(n) &&
          v * x * (t - 1.0) / (b - 1.0) <= t / b) {
        return static_cast<std::uint64_t>(x);
      }
    }
  }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_gaussian_ = 0.0;
  bool have_gaussian_ = false;
};

}  // namespace cim
