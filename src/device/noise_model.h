// Read-noise sampling strategy and its equivalence contract.
//
// The crossbar kernels multiply every sensed conductance by a lognormal
// read-noise factor. How those factors are *sampled* is a kernel-policy
// decision with a correctness contract attached:
//
//   KernelPolicy::kReference    per-cell AoS kernel; scalar libm sampling.
//                               The golden model — defines the stream.
//   KernelPolicy::kFastBitExact SoA two-pass kernel; scalar libm sampling
//                               in the reference draw order. Contract:
//                               bit-identical outputs to kReference.
//   KernelPolicy::kFastNoise    SoA kernel; factors served from a
//                               precomputed noise tile — an exact
//                               LogNormal(0, sigma) quantile lattice,
//                               shuffled once with counter-based hashes —
//                               at a fresh random rotation per row draw.
//                               Contract: *statistical* equivalence — the
//                               factors follow the same LogNormal(0,
//                               sigma) distribution (KS + moment gate) and
//                               end-to-end NN accuracy is at parity, but
//                               individual draws differ from the
//                               reference stream.
//
// NoiseModel owns both halves: Factors() is the sampler the fast kernel
// calls, and CheckEquivalence() is the gate the differential suite and the
// bench use to enforce the kFastNoise contract.
//
// The kFastNoise tile is a pure function of sigma, so there is one tile per
// sigma per process: every model with that sigma holds the same immutable
// tile, handed out by a mutex-guarded process-wide cache keyed by sigma's
// bit pattern. The cache keeps only weak references — a tile lives while
// some model (some crossbar) uses it, so tile memory is bounded by the
// distinct live sigma values, and an accelerator's arrays, spares and remaps
// all read one L2-resident tile instead of a private copy each. The tile is
// stored with a wrap tail — entries [kTileSize, kTileSize + kMaxLineCells)
// repeat entries [0, kMaxLineCells) — so every line's window, at any
// rotation, is contiguous and the kernel reads it in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"

namespace cim::device {

// The widest line any analog array drives or senses: the bound
// crossbar::CrossbarParams::Validate puts on rows and cols, and the length
// of the noise tile's wrap tail. One constant, so an array wider than the
// tail cannot be configured (crossbar static_asserts the tie).
inline constexpr std::size_t kMaxLineCells = 4096;

enum class KernelPolicy : std::uint8_t {
  kReference = 0,
  kFastBitExact,
  kFastNoise,
};

[[nodiscard]] std::string KernelPolicyName(KernelPolicy policy);

class NoiseModel {
 public:
  // One tile entry per quantile of the contract distribution; 2^16 entries
  // (512 KiB) keeps the lattice's own KS distance (~1/2^17) four orders of
  // magnitude under the gate threshold while the one shared tile per sigma
  // stays L2-resident.
  static constexpr std::size_t kTileSize = std::size_t{1} << 16;

  NoiseModel() = default;
  // Under kFastNoise with sigma > 0, takes the process-wide tile for sigma
  // (building it on first use).
  NoiseModel(double sigma, KernelPolicy policy);

  [[nodiscard]] double sigma() const { return sigma_; }
  [[nodiscard]] KernelPolicy policy() const { return policy_; }
  [[nodiscard]] bool enabled() const { return sigma_ > 0.0; }
  // True when the sampler reproduces the reference RNG stream draw for
  // draw (the bit-identity contract); false when the contract is
  // distributional only.
  [[nodiscard]] bool bit_exact() const {
    return policy_ != KernelPolicy::kFastNoise;
  }
  // The shared noise tile this model serves from (empty unless kFastNoise
  // with sigma > 0). Read-only: models with equal sigma see the same span.
  // Exactly kTileSize entries: the wrap tail is storage, not lattice.
  [[nodiscard]] std::span<const double> tile() const {
    if (!tile_) return {};
    return std::span<const double>(*tile_).first(kTileSize);
  }

  // The multiplicative read-noise factors of the first n_used cells of a
  // driven line of n_total cells, advancing `rng` exactly as sampling all
  // n_total would. The stream advances for every cell of a driven line;
  // only the sensed prefix is evaluated. Returns a pointer to n_used
  // factors, valid until the next call with the same `scratch`.
  //
  //   kReference / kFastBitExact: draws n_used LogNormals from `rng`, in
  //     order, into scratch[0..n_used), then discards the Gaussians of the
  //     remaining n_total - n_used cells (Rng::DiscardGaussians) —
  //     bit-identical to the reference kernel's stream, which reads every
  //     cell — and returns `scratch`.
  //   kFastNoise: consumes exactly ONE u64 from `rng` (the tile rotation
  //     r = NextU64() & (kTileSize - 1)) whatever the widths, and returns
  //     the tile's window at r in place: n_used <= kMaxLineCells
  //     consecutive entries, contiguous across the tile's end thanks to the
  //     wrap tail. No factor is copied or computed; `scratch` is untouched.
  //
  // Callers pass one call per driven line; the serial draw keeps successive
  // lines (and successive cycles) on decorrelated tile windows.
  [[nodiscard]] const double* Factors(Rng& rng, double* scratch,
                                      std::size_t n_used,
                                      std::size_t n_total) const {
    CIM_DCHECK(n_used <= n_total);
    if (policy_ == KernelPolicy::kFastNoise) {
      CIM_DCHECK(tile_ != nullptr && n_used <= kMaxLineCells);
      return tile_->data() + (rng.NextU64() & (kTileSize - 1));
    }
    FillExact(rng, scratch, n_used, n_total);
    return scratch;
  }

  // Factors() copied into out[0..n_used): the same draws and the same
  // values, for callers that want the factors in their own buffer.
  void FillFactors(Rng& rng, double* out, std::size_t n_used,
                   std::size_t n_total) const;
  // Every cell of the line sensed.
  void FillFactors(Rng& rng, double* out, std::size_t n) const {
    FillFactors(rng, out, n, n);
  }

  // ---- The statistical-equivalence contract -------------------------------

  struct EquivalenceReport {
    std::size_t samples = 0;
    double ks_statistic = 0.0;   // sup-norm vs the LogNormal(0, sigma) CDF
    double ks_threshold = 0.0;   // c(alpha=0.01)/sqrt(n), c = 1.628
    double mean_log = 0.0;       // mean of ln(factor); contract: 0
    double mean_log_bound = 0.0; // z=3.29 (two-sided 0.1%) * sigma/sqrt(n)
    double var_log = 0.0;        // variance of ln(factor); contract: sigma^2
    double var_log_bound = 0.0;  // z * sigma^2 * sqrt(2/(n-1))
    bool ks_pass = false;
    bool moments_pass = false;
    [[nodiscard]] bool pass() const { return ks_pass && moments_pass; }
  };

  // Gate `factors` against this model's contract distribution
  // LogNormal(0, sigma): one-sample KS test plus first/second moment tests
  // on ln(factor). Used by the differential suite and bench_mvm_kernel.
  [[nodiscard]] EquivalenceReport CheckEquivalence(
      const std::vector<double>& factors) const;

  // CDF of LogNormal(mu, sigma) at x (0 for x <= 0). Exposed for the
  // test-side KS helpers.
  [[nodiscard]] static double LogNormalCdf(double x, double mu, double sigma);

 private:
  double sigma_ = 0.0;
  KernelPolicy policy_ = KernelPolicy::kFastBitExact;
  // The bit-exact policies' libm path: LogNormal draws into out[0..n_used),
  // then the unsensed tail's Gaussians discarded.
  void FillExact(Rng& rng, double* out, std::size_t n_used,
                 std::size_t n_total) const;

  static_assert((kTileSize & (kTileSize - 1)) == 0,
                "tile rotation uses a power-of-two mask");
  // kTileSize lattice entries plus the kMaxLineCells wrap tail. Shared with
  // every other model of the same sigma; never written after construction,
  // so concurrent Factors calls need no synchronisation.
  std::shared_ptr<const std::vector<double>> tile_;
};

namespace detail {
// Acklam's rational approximation of the inverse standard-normal CDF,
// u in (0, 1); relative error ~1.15e-9. The central region
// |u - 0.5| <= 0.47575 (~95% of draws) is branchless polynomial work; the
// tails fall back to a sqrt(-2 log u) form. This is the quantile function
// the noise tile is built from.
[[nodiscard]] double InverseNormalCdf(double u);

// The counter-based uniform underlying the tile shuffle: splitmix64
// finalizer of (stream, index) mapped into (0, 1). Exposed so tests can
// pin the stream.
[[nodiscard]] double CounterUniform(std::uint64_t stream, std::uint64_t index);
}  // namespace detail

}  // namespace cim::device
