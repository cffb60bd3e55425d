/// @file fast_math.hpp — inline transcendental kernels for the sampling
/// hot path. `fast_log` replaces the out-of-line libm `log` in the
/// latency samplers: a call into libm costs more than the surrounding
/// arithmetic (PLT indirection plus caller-saved xmm spills around every
/// draw), so the millions-of-draws loops of measurement campaigns were
/// spending most of their time entering and leaving libm.
///
/// The construction is the standard table-plus-polynomial scheme modern
/// libms use: split x = 2^k * z with z in [0.6875, 1.375), index the top
/// 8 mantissa bits into a 256-cell table of (1/c, -log(1/c)) pairs with
/// c the cell midpoint, reduce r = z * invc - 1 (|r| <= 2^-9), and
/// evaluate log1p(r) with a short polynomial. Worst-case error is
/// ~2.5e-16 absolute for |log x| < 1 and ~2 ulp relative elsewhere —
/// measurably indistinguishable from libm for the simulator's samplers
/// (latency draws truncate to integer nanoseconds, which absorbs far
/// larger perturbations) and, unlike libm, identical across libc
/// versions because the table is committed, not computed.
///
/// Determinism contract: every sampler that feeds the byte-identical
/// replay guarantee must draw its logarithms from this kernel (both
/// `stats::ShiftedExponential` and `topo::CompiledPath` do), so the two
/// paths agree bit-for-bit on every platform.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

namespace sixg::stats {

namespace detail {

struct FastLogCell {
  double invc;  ///< double(1 / c) for the cell midpoint c
  double lhi;   ///< double(-log(invc))
};

/// 256 cells over z in [0.6875, 1.375); generated from the cell
/// midpoints with 80-bit long-double arithmetic (see fast_math.cpp).
extern const FastLogCell kFastLogTable[256];

constexpr std::uint64_t kFastLogOff = 0x3fe6000000000000ULL;
constexpr double kFastLogLn2 = 0x1.62e42fefa39efp-1;  // nearest double to ln 2

[[gnu::cold]] double fast_log_fallback(double x);  // 0/subnormal/neg/inf/nan

}  // namespace detail

/// Natural log of a positive, normal, finite double. Precondition is the
/// caller's responsibility — the sampling loops feed x = 1 - u with
/// u = Rng::uniform() in [0, 1), so x is always in [2^-53, 1] and the
/// special-value guard would be dead weight; use `fast_log` when the
/// domain is not statically known.
[[nodiscard]] inline double fast_log_positive_normal(double x) {
  std::uint64_t ix;
  std::memcpy(&ix, &x, 8);
  const std::uint64_t tmp = ix - detail::kFastLogOff;
  const auto i = std::size_t((tmp >> 44) & 255);
  const double k = double(std::int64_t(tmp) >> 52);
  const std::uint64_t iz = ix - (tmp & (0xfffULL << 52));
  double z;
  std::memcpy(&z, &iz, 8);
  const detail::FastLogCell cell = detail::kFastLogTable[i];
  const double r = z * cell.invc - 1.0;
  const double r2 = r * r;
  // log1p(r) - r = -r^2/2 + r^3/3 - r^4/4 + r^5/5, |r| <= 2^-9.
  const double qa = -0.5 + r * 0x1.5555555555555p-2;
  const double qb = -0x1p-2 + r * 0x1.999999999999ap-3;
  const double p = r2 * (qa + r2 * qb);
  return (k * detail::kFastLogLn2 + cell.lhi) + (r + p);
}

/// Natural log over the full double domain; matches libm semantics for
/// specials (log(0) = -inf, log(<0) = NaN, log(inf) = inf, log(NaN)
/// propagates, subnormals handled).
[[nodiscard]] inline double fast_log(double x) {
  std::uint64_t ix;
  std::memcpy(&ix, &x, 8);
  if (ix - 0x0010000000000000ULL >=
      0x7ff0000000000000ULL - 0x0010000000000000ULL) [[unlikely]]
    return detail::fast_log_fallback(x);
  return fast_log_positive_normal(x);
}

/// Every sampler, batched or not, takes its logs from the scalar kernel
/// above. These names survive only for the benchmark manifest, which
/// reports the build's log kernel.
enum class SimdTier : std::uint8_t {
  kScalar = 0,  ///< `fast_log_positive_normal`, one element at a time
};

[[nodiscard]] const char* simd_tier_name(SimdTier tier);
[[nodiscard]] SimdTier best_simd_tier();
[[nodiscard]] SimdTier simd_tier();

/// Compiled in a TU that must never contract a*b + c into an FMA; the CI
/// assertion test feeds operands whose fused and separately-rounded
/// results differ, proving the flag set stays honest. A contracted
/// multiply-add anywhere on the sampling path could move the committed
/// golden digests.
[[nodiscard]] double fp_contract_probe(double a, double b, double c);

}  // namespace sixg::stats
