#include "stats/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace hmdiv::stats {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state; SplitMix64 cannot emit
  // four consecutive zeros, but guard anyway for clarity.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Whiten seed and stream through independent SplitMix64 chains before
  // combining, then expand the combined word into the state. A raw XOR of
  // the two inputs would alias (s ^ k, 0) with (s, k); hashing each side
  // first removes that structure.
  std::uint64_t seed_chain = seed;
  std::uint64_t stream_chain = ~stream;
  std::uint64_t sm =
      splitmix64(seed_chain) ^ (splitmix64(stream_chain) + 0x9E3779B97F4A7C15ULL);
  for (auto& word : state_) word = splitmix64(sm);
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

void Rng::fill_uniform(std::span<double> out) noexcept {
  for (double& v : out) {
    v = static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
}

void Rng::fill_normal(std::span<double> out) noexcept {
  for (double& v : out) v = normal();
}

namespace {

// Acklam's rational approximation to the inverse normal CDF (relative
// error ~1.15e-9 over (0,1)). special.cpp's normal_quantile refines the
// same rational with a Halley step for interval endpoints; here the raw
// rational is enough — a ~1e-9 perturbation of a random deviate is far
// below anything a distributional (KS/chi-square) test can resolve, and
// skipping the refinement keeps the kernels free of libm calls so they
// vectorise.
constexpr double kIcdfA[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                              -2.759285104469687e+02, 1.383577518672690e+02,
                              -3.066479806614716e+01, 2.506628277459239e+00};
constexpr double kIcdfB[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                              -1.556989798598866e+02, 6.680131188771972e+01,
                              -1.328068155288572e+01};
constexpr double kIcdfC[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                              -2.400758277161838e+00, -2.549732539343734e+00,
                              4.374664141464968e+00,  2.938163982698783e+00};
constexpr double kIcdfD[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                              2.445134137142996e+00, 3.754408661907416e+00};
constexpr double kIcdfPLow = 0.02425;

// Same gating as special.cpp: target_clones resolves through an ifunc,
// which runs before sanitizer runtimes initialise; sanitized builds take
// the default codegen. rng.cpp is built with -ffp-contract=off, so no
// clone fuses a multiply-add: every clone rounds each operation the same
// way, and an AVX-512, an AVX2 and a baseline machine draw the same bits
// from the same seed.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define HMDIV_RNG_TARGET_CLONES
#else
#define HMDIV_RNG_TARGET_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#endif

/// Central-region rational; only valid for p in [kIcdfPLow, 1-kIcdfPLow]
/// but finite everywhere, so it can run unconditionally over a block.
inline double icdf_central(double p) noexcept {
  const double q = p - 0.5;
  const double r = q * q;
  const double num =
      (((((kIcdfA[0] * r + kIcdfA[1]) * r + kIcdfA[2]) * r + kIcdfA[3]) * r +
        kIcdfA[4]) *
           r +
       kIcdfA[5]) *
      q;
  const double den =
      ((((kIcdfB[0] * r + kIcdfB[1]) * r + kIcdfB[2]) * r + kIcdfB[3]) * r +
       kIcdfB[4]) *
          r +
      1.0;
  return num / den;
}

/// Tail rational in q = sqrt(−2 ln p') for the tail mass p' < kIcdfPLow;
/// returns the (negative) lower-tail deviate. Finite for every q ≥ 0.
inline double icdf_tail(double q) noexcept {
  return (((((kIcdfC[0] * q + kIcdfC[1]) * q + kIcdfC[2]) * q + kIcdfC[3]) *
               q +
           kIcdfC[4]) *
              q +
          kIcdfC[5]) /
         ((((kIcdfD[0] * q + kIcdfD[1]) * q + kIcdfD[2]) * q + kIcdfD[3]) * q +
          1.0);
}

constexpr std::uint64_t kExp52 = 0x4330000000000000ULL;  // 2⁵² exponent

/// Branch-free natural log for positive normal x (the fdlibm/musl
/// reduction): x = 2ᵏ·m with m in [√½, √2), f = m − 1 (exact), s =
/// f/(2+f), and ln m = f − f²/2 + s·(f²/2 + R(s²)) with fdlibm's degree-14
/// minimax R. Only integer bit operations, one division and plain
/// arithmetic, so it vectorises. Error bound: |log_poly(x) − ln x| ≤
/// 2⁻⁵⁰·|ln x| (fdlibm states < 1 ulp; 2·10⁷ samples over (2⁻³³, 1),
/// 1 ± 10⁻³ and e^±30 stay within 2⁻⁵² of glibc's log).
inline double log_poly(double x) noexcept {
  constexpr double kLg1 = 6.666666666666735130e-01;
  constexpr double kLg2 = 3.999999999940941908e-01;
  constexpr double kLg3 = 2.857142874366239149e-01;
  constexpr double kLg4 = 2.222219843214978396e-01;
  constexpr double kLg5 = 1.818357216161805012e-01;
  constexpr double kLg6 = 1.531383769920937332e-01;
  constexpr double kLg7 = 1.479819860511658591e-01;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr std::uint64_t kSqrtHalf = 0x3fe6a09e667f3bcdULL;  // bits of √½
  // Adding the bit offset of 1.0 over √½ carries into the exponent
  // exactly when x's significand is ≥ √2, so bits >> 52 is k + 1023 for
  // the k with x/2ᵏ in [√½, √2), and the low 52 bits plus √½'s bits are
  // that m. k goes to double by the 2⁵² offset trick (AVX2 has no
  // int64 → double convert).
  const std::uint64_t bits =
      std::bit_cast<std::uint64_t>(x) + (0x3ff0000000000000ULL - kSqrtHalf);
  const double k =
      std::bit_cast<double>((bits >> 52) | kExp52) - (0x1.0p52 + 1023.0);
  const double f =
      std::bit_cast<double>((bits & 0x000fffffffffffffULL) + kSqrtHalf) - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double hfsq = 0.5 * f * f;
  return s * (hfsq + (t2 + t1)) + k * kLn2Lo - hfsq + f + k * kLn2Hi;
}

/// The Marsaglia–Tsang log test with libm logs, for v3 = v³ > 0, u > 0.
/// gamma_core and the batched kernels' in-band lanes both decide here.
inline bool mt_log_accept(double u, double x, double d, double v3) noexcept {
  return std::log(u) < 0.5 * x * x + d * (1.0 - v3 + std::log(v3));
}

/// Stack-block lane width for the batched kernels: big enough to amortise
/// loop overheads and keep the vector units busy, small enough that the
/// scratch (a few such arrays) stays a handful of KiB of stack.
constexpr std::size_t kFillBlock = 256;

/// Pass 1 of fill_gamma over every lane: the central inverse-CDF rational,
/// the candidate d·v³ and the squeeze. ok[j] is set only for a lane that
/// is central, has v > 0 and passes the squeeze — accepted outright with
/// block[j] final. Every other lane (~9% at the uq endpoint's shapes:
/// inverse-CDF tails, squeeze failures) goes to gamma_decide_block. `p`
/// and `u` lie strictly inside (0, 1). The flags are 64-bit so the loop
/// vectorises at the width of its doubles; byte flags make GCC widen the
/// vectorisation factor to 32.
HMDIV_RNG_TARGET_CLONES void gamma_candidate_block(
    const double* __restrict__ p, const double* __restrict__ u, double d,
    double c, double* __restrict__ value, std::uint64_t* __restrict__ ok,
    std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double zz = icdf_central(p[j]);
    const double v = 1.0 + c * zz;
    value[j] = d * (v * v * v);
    const double z2 = zz * zz;
    ok[j] = static_cast<std::uint64_t>(
        (p[j] >= kIcdfPLow) & (p[j] <= 1.0 - kIcdfPLow) & (v > 0.0) &
        (u[j] < 1.0 - 0.0331 * z2 * z2));
  }
}

/// Lane-wise X/(X+Y) reduction of two gamma blocks to a beta block.
HMDIV_RNG_TARGET_CLONES void beta_combine_block(double* __restrict__ x,
                                                const double* __restrict__ y,
                                                std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) x[j] = x[j] / (x[j] + y[j]);
}

/// Interleave width of the uniform-pair kernel: 8 × 64-bit engine states,
/// one AVX-512 register or two AVX2 registers per state word.
constexpr std::size_t kUniformLanes = 8;

/// GCC vector types for the interleaved engines: lane j of each is engine
/// j. Written as explicit vectors because the auto-vectoriser turns the
/// 8-lane state recurrence into scalar code.
using U64Lanes =
    std::uint64_t __attribute__((vector_size(kUniformLanes * 8)));
using F64Lanes = double __attribute__((vector_size(kUniformLanes * 8)));

/// The 8 interleaved xoshiro256+ lane engines of one fill_gamma/fill_beta
/// call (state words s0..s3, lane j = engine j). Their states are derived
/// from ONE member-engine draw through a SplitMix64 chain — the same
/// whitening the (seed, stream) constructor uses — so the lanes are as
/// unrelated as different seeds, and the member stream advances by one
/// step per call whatever its length.
struct LaneEngines {
  U64Lanes s0, s1, s2, s3;

  explicit LaneEngines(Rng& rng) noexcept {
    std::uint64_t sm = rng.next_u64();
    for (std::size_t j = 0; j < kUniformLanes; ++j) {
      s0[j] = splitmix64(sm);
      s1[j] = splitmix64(sm);
      s2[j] = splitmix64(sm);
      s3[j] = splitmix64(sm);
      if (s0[j] == 0 && s1[j] == 0 && s2[j] == 0 && s3[j] == 0) s0[j] = 1;
    }
  }
};

/// Steps every lane engine n / kUniformLanes times, one output per lane
/// per step, split into two mid-tread 32-bit uniforms (k + 0.5)·2⁻³², both
/// strictly inside (0, 1): p feeds the inverse-CDF normal, u the
/// Marsaglia–Tsang test. The 2⁻³² grid perturbs the distribution at the
/// 2⁻³³ level, far below the batched kernels' distributional contract.
/// xoshiro256+ instead of ** because the + scrambler is a single add — the
/// ** variant's 64-bit multiplies have no AVX2 instruction. Its known
/// weakness (linear artefacts in the lowest output bits) lands in the low
/// bits of `u`, perturbing it below the 2⁻³⁰ level. The u64→double
/// conversions use the 2⁵² exponent-offset trick because AVX2 has no
/// unsigned-quad convert; the result is bit-identical to static_cast (both
/// halves are < 2³², exactly representable). Integer ops plus one exact
/// subtraction and one exact power-of-two scaling, so every clone yields
/// the same bits. n must be a multiple of kUniformLanes.
HMDIV_RNG_TARGET_CLONES void uniform_pair_block(LaneEngines& lanes,
                                                double* __restrict__ p,
                                                double* __restrict__ u,
                                                std::size_t n) {
  constexpr double kOffset = 0x1.0p52 - 0.5;  // folds the +0.5 mid-tread
  U64Lanes s0 = lanes.s0, s1 = lanes.s1, s2 = lanes.s2, s3 = lanes.s3;
  for (std::size_t i = 0; i < n; i += kUniformLanes) {
    const U64Lanes r = s0 + s3;
    const U64Lanes t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = (s3 << 45) | (s3 >> 19);
    // __builtin_bit_cast, not std::bit_cast: a vector returned by value
    // from a function changes ABI between clones (-Wpsabi).
    const F64Lanes hi = __builtin_bit_cast(F64Lanes, (r >> 32) | kExp52);
    const F64Lanes lo =
        __builtin_bit_cast(F64Lanes, (r & 0xFFFFFFFFULL) | kExp52);
    const F64Lanes ph = (hi - kOffset) * 0x1.0p-32;
    const F64Lanes ul = (lo - kOffset) * 0x1.0p-32;
    std::memcpy(p + i, &ph, sizeof ph);
    std::memcpy(u + i, &ul, sizeof ul);
  }
  lanes.s0 = s0;
  lanes.s1 = s1;
  lanes.s2 = s2;
  lanes.s3 = s3;
}

/// Fills one block of at most kFillBlock Gamma draws. Pass 1 settles the
/// central squeeze-accepted lanes; the rest are compacted and decided by
/// gamma_decide_block, whose rare in-band lanes take the libm test. A
/// rejected lane is refilled from the member engine and decided again,
/// round after round, until none is left.
void gamma_fill_block(Rng& rng, LaneEngines& lanes,
                      const Rng::GammaPrep& prep, double* block,
                      std::size_t m) noexcept {
  double p[kFillBlock];
  double u[kFillBlock];
  double z[kFillBlock];
  double value[kFillBlock];
  std::uint32_t idx[kFillBlock];
  std::uint64_t verdict[kFillBlock];
  const double d = prep.d;
  const double c = prep.c;
  // Whole lane steps; the arrays hold kFillBlock, a multiple of them.
  uniform_pair_block(lanes, p, u,
                     (m + kUniformLanes - 1) / kUniformLanes * kUniformLanes);
  gamma_candidate_block(p, u, d, c, block, verdict, m);
  // Compact the unsettled lanes' indices and uniforms to the front; idx[k]
  // >= k, so the in-place gather never reads a slot it already wrote.
  std::size_t pending = 0;
  for (std::size_t j = 0; j < m; ++j) {
    idx[pending] = static_cast<std::uint32_t>(j);
    pending += verdict[j] == 0 ? 1 : 0;
  }
  for (std::size_t k = 0; k < pending; ++k) {
    p[k] = p[idx[k]];
    u[k] = u[idx[k]];
  }
  while (pending > 0) {
    // Whole lane steps: the vector loop then never falls to its scalar
    // epilogue. The padding lanes hold earlier uniforms, still in (0, 1),
    // and their verdicts are ignored.
    const std::size_t padded =
        (pending + kUniformLanes - 1) / kUniformLanes * kUniformLanes;
    detail::gamma_decide_block(p, u, d, c, z, value, verdict, padded);
    std::size_t rejected = 0;
    for (std::size_t k = 0; k < pending; ++k) {
      bool accept = verdict[k] == detail::kGammaAccept;
      if (verdict[k] == detail::kGammaUndecided) {
        const double v = 1.0 + c * z[k];
        accept = mt_log_accept(u[k], z[k], d, v * v * v);
      }
      if (accept) {
        block[idx[k]] = value[k];
      } else {
        idx[rejected++] = idx[k];
      }
    }
    // Refill: fresh candidates for the rejected lanes (about 0.1% of them
    // at the posterior shapes) straight from the member engine.
    pending = rejected;
    for (std::size_t k = 0; k < pending; ++k) {
      const std::uint64_t r = rng.next_u64();
      p[k] = (static_cast<double>(r >> 32) + 0.5) * 0x1.0p-32;
      u[k] = (static_cast<double>(r & 0xFFFFFFFFULL) + 0.5) * 0x1.0p-32;
    }
  }
  if (prep.boosted) {
    // Shape < 1: scale the Gamma(shape+1) block by u^(1/shape), the
    // Marsaglia–Tsang boost. The scalar path draws its uniform before
    // the gamma; the batched path draws the whole block after — a
    // different stream mapping, same distribution.
    rng.fill_uniform({u, m});
    for (std::size_t j = 0; j < m; ++j) {
      block[j] *= std::pow(u[j], prep.inv_shape);
    }
  }
}

}  // namespace

namespace detail {

HMDIV_RNG_TARGET_CLONES void gamma_decide_block(
    const double* __restrict__ p, const double* __restrict__ u, double d,
    double c, double* __restrict__ z, double* __restrict__ value,
    std::uint64_t* __restrict__ verdict, std::size_t n) noexcept {
  for (std::size_t j = 0; j < n; ++j) {
    const double pj = p[j];
    // Both inverse-CDF branches run on every lane; the tail one on the
    // smaller tail mass, mirrored for the upper tail.
    const double tail_mass = pj < 0.5 ? pj : 1.0 - pj;
    const double tail = icdf_tail(std::sqrt(-2.0 * log_poly(tail_mass)));
    const double central = icdf_central(pj);
    const double zz = pj < kIcdfPLow           ? tail
                      : pj > 1.0 - kIcdfPLow ? -tail
                                             : central;
    z[j] = zz;
    const double v = 1.0 + c * zz;
    const double v3 = v * v * v;
    value[j] = d * v3;
    const double z2 = zz * zz;
    const bool squeeze = u[j] < 1.0 - 0.0331 * z2 * z2;
    // The log test, ln u < z²/2 + d·(1 − v³ + ln v³), with log_poly. v3 is
    // only used where v > 0; the guard keeps the other lanes finite.
    const double ln_u = log_poly(u[j]);
    const double ln_v3 = log_poly(v3 > 0.0 ? v3 : 1.0);
    const double one_minus_v3 = 1.0 - v3;
    const double margin = ln_u - (0.5 * z2 + d * (one_minus_v3 + ln_v3));
    const double band =
        kGammaDecisionBand *
        (std::fabs(ln_u) + 0.5 * z2 +
         d * (std::fabs(one_minus_v3) + std::fabs(ln_v3)));
    const bool live = v > 0.0;
    const bool accept = live & (squeeze | (margin < -band));
    const bool undecided = live & !squeeze & (std::fabs(margin) <= band);
    verdict[j] = accept      ? kGammaAccept
                 : undecided ? kGammaUndecided
                             : kGammaReject;
  }
}

}  // namespace detail

void Rng::fill_gamma(const GammaPrep& prep, std::span<double> out) noexcept {
  LaneEngines lanes(*this);
  for (std::size_t start = 0; start < out.size(); start += kFillBlock) {
    const std::size_t m = std::min(kFillBlock, out.size() - start);
    gamma_fill_block(*this, lanes, prep, out.data() + start, m);
  }
}

void Rng::fill_beta(const GammaPrep& a, const GammaPrep& b,
                    std::span<double> out) noexcept {
  LaneEngines lanes(*this);
  double y[kFillBlock];
  for (std::size_t start = 0; start < out.size(); start += kFillBlock) {
    const std::size_t m = std::min(kFillBlock, out.size() - start);
    double* block = out.data() + start;
    gamma_fill_block(*this, lanes, a, block, m);
    gamma_fill_block(*this, lanes, b, y, m);
    beta_combine_block(block, y, m);
  }
}

double Rng::uniform(double lo, double hi) {
  if (!(lo <= hi)) throw std::invalid_argument("Rng::uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::uniform_index: bound == 0");
  // Rejection sampling over the largest multiple of `bound` <= 2^64.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal() noexcept {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double sigma) {
  if (sigma < 0.0) throw std::invalid_argument("Rng::normal: sigma < 0");
  return mean + sigma * normal();
}

Rng::GammaPrep::GammaPrep(double shape) {
  if (shape <= 0.0) throw std::invalid_argument("Rng::GammaPrep: shape <= 0");
  boosted = shape < 1.0;
  const double effective = boosted ? shape + 1.0 : shape;
  d = effective - 1.0 / 3.0;
  c = 1.0 / std::sqrt(9.0 * d);
  inv_shape = 1.0 / shape;
}

namespace {

/// The Marsaglia–Tsang acceptance loop for effective shape >= 1, with the
/// per-shape constants hoisted out. Both gamma overloads funnel here so
/// their streams and values agree exactly.
double gamma_core(Rng& rng, double d, double c) {
  for (;;) {
    double x, v;
    do {
      x = rng.normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && mt_log_accept(u, x, d, v)) return d * v;
  }
}

}  // namespace

double Rng::gamma(double shape) {
  if (shape <= 0.0) throw std::invalid_argument("Rng::gamma: shape <= 0");
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia–Tsang note). The uniform
    // is drawn *before* the boosted gamma, and GammaPrep's path preserves
    // that order.
    const double u = uniform();
    const double d = (shape + 1.0) - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    return gamma_core(*this, d, c) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  return gamma_core(*this, d, c);
}

double Rng::gamma(const GammaPrep& prep) {
  if (prep.boosted) {
    const double u = uniform();
    return gamma_core(*this, prep.d, prep.c) * std::pow(u, prep.inv_shape);
  }
  return gamma_core(*this, prep.d, prep.c);
}

double Rng::beta(double a, double b) {
  if (a <= 0.0 || b <= 0.0) throw std::invalid_argument("Rng::beta: a,b <= 0");
  const double x = gamma(a);
  const double y = gamma(b);
  return x / (x + y);
}

double Rng::beta(const GammaPrep& a, const GammaPrep& b) {
  const double x = gamma(a);
  const double y = gamma(b);
  return x / (x + y);
}

namespace {

/// Stirling-series remainder log(k!) − [(k+½)·log(k+1) − (k+1) + ½·log(2π)],
/// tabulated for k < 10 and from the series' first three terms beyond
/// (as in Hörmann 1993).
double stirling_tail(double k) {
  static constexpr double kTable[10] = {
      0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
      0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
      0.01189670994589177, 0.01041126526197209, 0.009255462182712733,
      0.008330563433362871};
  if (k < 10.0) return kTable[static_cast<std::size_t>(k)];
  const double inv = 1.0 / (k + 1.0);
  const double inv2 = inv * inv;
  return (1.0 / 12.0 - (1.0 / 360.0 - inv2 / 1260.0) * inv2) * inv;
}

/// Binomial(n, p), p <= 1/2, n·p < 10, by sequential-search inversion of
/// the CDF from 0: expected cost O(n·p + 1). The pmf recurrence
/// f(x) = f(x−1)·((n+1)·s/x − s), s = p/q, starts from f(0) = q^n > e^−14
/// (n·p < 10 and p ≤ ½), so it never starts underflowed. A uniform whose
/// residual outlives the pmf (rounding left it above the last
/// representable mass) is redrawn.
std::uint64_t binomial_inversion(Rng& rng, std::uint64_t n, double p) {
  const double s = p / (1.0 - p);
  const double a = (static_cast<double>(n) + 1.0) * s;
  const double f0 = std::exp(static_cast<double>(n) * std::log1p(-p));
  for (;;) {
    double u = rng.uniform();
    double f = f0;
    std::uint64_t x = 0;
    while (u > f && f > 0.0 && x < n) {
      u -= f;
      ++x;
      f *= a / static_cast<double>(x) - s;
    }
    if (u <= f) return x;
  }
}

/// Binomial(n, p), p <= 1/2, n·p >= 10, by Hörmann's BTRD: transformed
/// rejection with decomposition ("The generation of binomial random
/// variates", J. Statist. Comput. Simul. 46, 1993). Expected cost O(1);
/// as n·p·(1−p) grows, 0.86·0.92 ≈ 79% of draws are accepted from their
/// first uniform, without evaluating the pmf.
std::uint64_t binomial_btrd(Rng& rng, std::uint64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double m = std::floor((nd + 1.0) * p);
  const double r = p / (1.0 - p);
  const double nr = (nd + 1.0) * r;
  const double npq = nd * p * (1.0 - p);
  const double sqrt_npq = std::sqrt(npq);
  const double b = 1.15 + 2.53 * sqrt_npq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double alpha = (2.83 + 5.1 / b) * sqrt_npq;
  const double v_r = 0.92 - 4.2 / b;
  const double u_rv_r = 0.86 * v_r;
  for (;;) {
    // Step 1: the central box, accepted with no further test.
    double v = rng.uniform();
    if (v <= u_rv_r) {
      const double u = v / v_r - 0.43;
      return static_cast<std::uint64_t>(
          std::floor((2.0 * a / (0.5 - std::fabs(u)) + b) * u + c));
    }
    // Step 2: a point under the hat outside the box.
    double u;
    if (v >= v_r) {
      u = rng.uniform() - 0.5;
    } else {
      u = v / v_r - 0.93;
      u = (u < 0.0 ? -0.5 : 0.5) - u;
      v = rng.uniform() * v_r;
    }
    // Step 3: candidate k, accepted against f(k)/f(m).
    const double us = 0.5 - std::fabs(u);
    const double k = std::floor((2.0 * a / us + b) * u + c);
    if (k < 0.0 || k > nd) continue;
    v = v * alpha / (a / (us * us) + b);
    const double km = std::fabs(k - m);
    if (km <= 15.0) {
      // 3.1: the pmf ratio by its recurrence, one factor per step.
      double f = 1.0;
      if (m < k) {
        for (double i = m + 1.0; i <= k; i += 1.0) f *= nr / i - r;
      } else {
        for (double i = k + 1.0; i <= m; i += 1.0) v *= nr / i - r;
      }
      if (v <= f) return static_cast<std::uint64_t>(k);
      continue;
    }
    // 3.2: squeeze on log f(k)/f(m) around its normal approximation.
    v = std::log(v);
    const double rho =
        (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5);
    const double t = -km * km / (2.0 * npq);
    if (v < t - rho) return static_cast<std::uint64_t>(k);
    if (v > t + rho) continue;
    // 3.3: exact test through Stirling's formula with its remainders.
    const double nm = nd - m + 1.0;
    const double h = (m + 0.5) * std::log((m + 1.0) / (r * nm)) +
                     stirling_tail(m) + stirling_tail(nd - m);
    const double nk = nd - k + 1.0;
    if (v <= h + (nd + 1.0) * std::log(nm / nk) +
                 (k + 0.5) * std::log(nk * r / (k + 1.0)) - stirling_tail(k) -
                 stirling_tail(nd - k)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

}  // namespace

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("Rng::binomial: p outside [0,1]");
  }
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  // Both samplers need p <= 1/2; the upper half draws failures instead.
  const bool flip = p > 0.5;
  const double q = flip ? 1.0 - p : p;
  const std::uint64_t x = static_cast<double>(n) * q < 10.0
                              ? binomial_inversion(*this, n, q)
                              : binomial_btrd(*this, n, q);
  return flip ? n - x : x;
}

std::size_t Rng::discrete(std::span<const double> weights) {
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0 || !std::isfinite(w)) {
      throw std::invalid_argument("Rng::discrete: weights must be finite and >= 0");
    }
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("Rng::discrete: all weights are zero");
  }
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // Numerical edge: land on the last bucket.
}

void Rng::jump() noexcept {
  // Jump polynomial published with xoshiro256** (Blackman & Vigna):
  // advances the state by exactly 2^128 steps of next_u64().
  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL, 0xA9582618E03FC9AAULL,
      0x39ABDC4529B1661CULL};
  std::array<std::uint64_t, 4> gathered{};
  for (const std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if ((word & (1ULL << bit)) != 0) {
        for (std::size_t i = 0; i < state_.size(); ++i) {
          gathered[i] ^= state_[i];
        }
      }
      (void)next_u64();
    }
  }
  state_ = gathered;
  has_spare_normal_ = false;
}

Rng Rng::split(std::uint64_t stream_id) const noexcept {
  // Key the child stream on the parent's full state plus the stream id.
  std::uint64_t mix = stream_id ^ 0xA5A5A5A55A5A5A5AULL;
  for (const std::uint64_t word : state_) mix ^= splitmix64(mix) + word;
  return Rng(mix);
}

}  // namespace hmdiv::stats
