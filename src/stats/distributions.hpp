#pragma once

#include <span>

#include "common/rng.hpp"

namespace sixg::stats {

/// Samplers for the latency-model distributions. All draw from sixg::Rng so
/// replications are reproducible; all are value types so per-cell models are
/// cheap to copy into parallel workers.

/// Standard normal via Marsaglia polar method (stateless across calls —
/// we deliberately discard the second variate to keep replay exact even if
/// call sites interleave).
[[nodiscard]] double sample_normal(Rng& rng, double mean, double stddev);

/// Lognormal; heavy right tail, the canonical model for wide-area RTT
/// (body around the propagation floor, occasional large spikes).
class Lognormal {
 public:
  /// Construct from the *underlying* normal parameters.
  Lognormal(double mu, double sigma) : mu_(mu), sigma_(sigma) {}

  /// Construct from desired median and the sigma of the log (shape).
  [[nodiscard]] static Lognormal from_median(double median, double sigma);

  [[nodiscard]] double sample(Rng& rng) const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double median() const;

 private:
  double mu_;
  double sigma_;
};

/// Exponential with optional left shift: floor + Exp(rate). Models
/// residual queueing above a deterministic floor.
class ShiftedExponential {
 public:
  ShiftedExponential(double shift, double mean_excess)
      : shift_(shift), mean_excess_(mean_excess) {}

  [[nodiscard]] double sample(Rng& rng) const;

  /// Batched draw: `out[i]` is bit-identical to the i-th `sample(rng)`
  /// call and the RNG advances by exactly `out.size()` words, so block
  /// and scalar callers interleave freely. Draws its words in blocks
  /// through `Rng::fill`.
  void sample_into(std::span<double> out, Rng& rng) const;

  [[nodiscard]] double mean() const { return shift_ + mean_excess_; }

 private:
  double shift_;
  double mean_excess_;
};

}  // namespace sixg::stats
