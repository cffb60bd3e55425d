/// @file reservoir.hpp — bounded-memory quantile sink: exact while the
/// stream fits the cap, uniform reservoir sample (Vitter's Algorithm R)
/// beyond it. This is what lets a million-request serving report keep
/// O(cap) memory instead of retaining every end-to-end sample.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace sixg::stats {

/// Streaming quantile estimator over a capped sample buffer.
///
/// Below the cap it retains every value and its quantiles are exact:
/// sorted_quantile over the whole sample, so a cap of at least the
/// sample count makes it an exact quantile sink. Past the cap each new value replaces a uniformly random
/// resident with probability cap/seen — the classic reservoir — using a
/// private generator, so adding samples never perturbs any other
/// deterministic stream.
class ReservoirQuantile {
 public:
  /// 64Ki doubles (512 KiB): exact for every classic scenario sweep, and
  /// a ±0.4 % p99 at a million samples.
  static constexpr std::size_t kDefaultCap = std::size_t{1} << 16;

  explicit ReservoirQuantile(std::size_t cap = kDefaultCap,
                             std::uint64_t seed = 0x6e5e'0b5e'9d1e'55efULL);

  void add(double x);

  /// Values offered, including those that fell out of the reservoir.
  [[nodiscard]] std::uint64_t count() const { return seen_; }
  /// Values currently resident (== count() while exact).
  [[nodiscard]] std::size_t sample_count() const { return data_.size(); }
  [[nodiscard]] std::size_t cap() const { return cap_; }
  /// True while no value has been evicted: quantiles are exact order
  /// statistics, not estimates.
  [[nodiscard]] bool exact() const { return seen_ <= cap_; }

  /// q in [0,1]; linear interpolation between resident order statistics.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

  /// Fold `other`'s samples into this reservoir. While both sides are
  /// exact and the union fits the cap, the result is bit-identical to
  /// having add()ed other's values here in their insertion order — the
  /// property sharded fleet reports rely on to match serial runs byte
  /// for byte. Beyond that the merge is a weighted subsample drawn from
  /// this reservoir's private generator: deterministic for a fixed merge
  /// order, so merging per-shard reservoirs in fixed shard order is
  /// reproducible at any worker count.
  void merge(const ReservoirQuantile& other);

  /// Append a strict-JSON object: {"count","cap","exact","q":{...}}.
  /// An empty reservoir exports quantiles as the round-trippable "NaN"
  /// sentinel instead of asserting.
  void to_json(std::string& out) const;

 private:
  std::size_t cap_;
  Rng rng_;
  std::uint64_t seen_ = 0;
  mutable std::vector<double> data_;
  mutable bool sorted_ = false;
};

}  // namespace sixg::stats
