#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace sixg::stats {

/// Streaming summary statistics (Welford's online algorithm). O(1) space,
/// numerically stable, and mergeable — independent replications run in
/// parallel and their summaries combine with `merge` (Chan et al.), which
/// is what makes the campaign runner embarrassingly parallel.
class Summary {
 public:
  void add(double x);
  void merge(const Summary& other);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return mean_ * double(n_); }

  [[nodiscard]] std::string str() const;
  /// Append the str() rendering to `out` without constructing a fresh
  /// string — the form render loops should use.
  void to(std::string& out) const;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace sixg::stats
