#include "stats/distributions.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "stats/fast_math.hpp"

namespace sixg::stats {

double sample_normal(Rng& rng, double mean, double stddev) {
  // Marsaglia polar method; discard the paired variate (see header).
  double u;
  double v;
  double s;
  do {
    u = rng.uniform(-1.0, 1.0);
    v = rng.uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  return mean + stddev * u * factor;
}

Lognormal Lognormal::from_median(double median, double sigma) {
  SIXG_ASSERT(median > 0.0, "lognormal median must be positive");
  return Lognormal{std::log(median), sigma};
}

double Lognormal::sample(Rng& rng) const {
  return std::exp(sample_normal(rng, mu_, sigma_));
}

double Lognormal::mean() const {
  return std::exp(mu_ + 0.5 * sigma_ * sigma_);
}

double Lognormal::median() const { return std::exp(mu_); }

double ShiftedExponential::sample(Rng& rng) const {
  // Inverse CDF; 1 - uniform() is in (0, 1] so the log is finite — and
  // always positive normal, so the guard-free fast_log kernel applies.
  // This draw is the per-link inner loop of every topology campaign;
  // CompiledPath inlines the identical arithmetic, and the byte-match
  // between the two depends on both using the same log kernel.
  return shift_ -
         mean_excess_ * fast_log_positive_normal(1.0 - rng.uniform());
}

void ShiftedExponential::sample_into(std::span<double> out, Rng& rng) const {
  // Exactly one RNG word per sample, so the whole block can come from
  // Rng::fill. 1 - u is staged into `out` itself, then the log and the
  // affine map finish in place — each step bit-identical to the scalar
  // sample() above.
  constexpr std::size_t kChunk = 256;
  std::uint64_t words[kChunk];
  std::size_t done = 0;
  while (done < out.size()) {
    const std::size_t n = std::min(kChunk, out.size() - done);
    rng.fill({words, n});
    const std::span<double> block = out.subspan(done, n);
    for (std::size_t i = 0; i < n; ++i)
      block[i] = 1.0 - double(words[i] >> 11) * 0x1.0p-53;
    for (std::size_t i = 0; i < n; ++i)
      block[i] = shift_ - mean_excess_ * fast_log_positive_normal(block[i]);
    done += n;
  }
}

}  // namespace sixg::stats
