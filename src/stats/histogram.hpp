#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sixg::stats {

/// Fixed-bin histogram over [lo, hi) with overflow/underflow buckets.
/// Used for latency distributions (e.g. the PHY-latency CDF bench that
/// reproduces the Fezeu et al. "4.4 % < 1 ms / 22.36 % < 3 ms" shape).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const { return total_; }
  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bin(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const;
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }

  /// Fraction of samples strictly below `x` (linear interpolation within the
  /// containing bin). This is the empirical CDF.
  [[nodiscard]] double cdf(double x) const;

  /// Append a strict-JSON object: {"lo","hi","count","underflow",
  /// "overflow","bins":[...]}. Non-finite bounds round-trip via the
  /// stats/json.hpp sentinel-string encoding.
  void to_json(std::string& out) const;

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

/// q in [0,1] over an already-sorted, non-empty sample: linear
/// interpolation between order statistics. ReservoirQuantile's exact
/// (below-cap) quantiles are this expression over every value added.
[[nodiscard]] double sorted_quantile(const std::vector<double>& sorted,
                                     double q);

}  // namespace sixg::stats
