/// @file compiled_path.hpp — the sampling half of the topology hot path.
/// `Network::find_path` constructs a `Path` (routing); compiling it
/// flattens each traversed link's queueing parameters into contiguous
/// SoA arrays so every subsequent latency draw is a tight, lookup-free
/// loop: no `Network::link()` indirection, no distribution object, no
/// libm call. Campaign-style consumers (ping fleets, grid sweeps,
/// serving studies) compile once per path and then draw millions of
/// samples.
///
/// Determinism contract: `CompiledPath::sample_rtt` / `sample_one_way`
/// consume RNG draws in exactly the order `Network::sample_rtt` /
/// `sample_one_way` do and produce bit-identical Durations — per link a
/// queueing draw, a 2 % spike-chance draw, and (spike only) a magnitude
/// draw. tests/test_topo.cpp enforces the equivalence across seeds, hop
/// counts and the spike branch.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "stats/fast_math.hpp"
#include "topo/types.hpp"

namespace sixg::topo {

/// Mean M/M/1-flavoured queueing delay of a link at `utilization`, in
/// microseconds. Shared between the reference sampler
/// (`Network::sample_queueing`) and `Network::compile` so the compiled
/// parameters match the per-draw computation bit-for-bit.
[[nodiscard]] inline double link_queue_mean_us(double utilization) {
  const double u = std::clamp(utilization, 0.0, 0.99);
  return 80.0 * u / (1.0 - u);
}

/// Spike coefficient of a link (the clamped utilisation scales the rare
/// cross-traffic burst).
[[nodiscard]] inline double link_spike_coefficient(double utilization) {
  return std::clamp(utilization, 0.0, 0.99);
}

/// Empty; kept for sixg_e2ebench's net-leg probe (NetLeg::sample_into).
struct PathBatchScratch {};

/// An immutable, flattened snapshot of one routed path, ready for cheap
/// repeated latency sampling. Value type: copy freely into samplers and
/// parallel workers. Invalidated semantically (not memory-wise) by
/// topology mutation — recompile after add_link/remove_link.
class CompiledPath {
 public:
  CompiledPath() = default;

  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] std::size_t hop_count() const { return neg_mean_us_.size(); }
  [[nodiscard]] Duration base_one_way() const { return base_one_way_; }

  /// Conservative lookahead of this path: a hard lower bound on every
  /// one-way latency draw. Queueing draws are >= 0 (the exponential is
  /// non-negative and spikes only add), so no sample_one_way result can
  /// ever be below the deterministic floor. Sharded simulations size
  /// their synchronization window with this (see netsim::ShardedSimulator).
  [[nodiscard]] Duration min_latency() const { return base_one_way_; }
  [[nodiscard]] double distance_km() const { return distance_km_; }
  /// The traversed links, for capacity-style consumers (slice admission).
  [[nodiscard]] std::span<const LinkId> links() const { return links_; }

  /// One-way latency draw: deterministic floor plus per-link queueing.
  [[nodiscard]] Duration sample_one_way(Rng& rng) const {
    return Duration::nanos(base_one_way_.ns() + sample_queueing_ns(rng));
  }

  /// Round-trip draw; forward and reverse queueing are independent.
  [[nodiscard]] Duration sample_rtt(Rng& rng) const {
    const std::int64_t forward = sample_queueing_ns(rng);
    const std::int64_t reverse = sample_queueing_ns(rng);
    return Duration::nanos(2 * base_one_way_.ns() + forward + reverse);
  }

  /// Queueing draw of a single traversal of hop `i` (same draw the
  /// reference `Network::sample_queueing` makes for that link).
  [[nodiscard]] Duration sample_hop_queueing(std::size_t i, Rng& rng) const {
    return Duration::from_micros_f(sample_hop_us(i, rng));
  }

 private:
  friend class Network;

  // rng.chance(0.02) computes uniform() < 0.02 with uniform() the exact
  // value (next() >> 11) * 2^-53; because the product is exact, the
  // comparison is equivalent to the raw integer test below (0.02 as a
  // double is 5764607523034235 * 2^-58, so uniform() < 0.02 iff
  // next() >> 11 < 180143985094820 iff next() < that << 11).
  static constexpr std::uint64_t kSpikeCutRaw = 180143985094820ULL << 11;

  [[nodiscard]] double sample_hop_us(std::size_t i, Rng& rng) const {
    // Identical draw order and arithmetic to the reference sampler:
    // ShiftedExponential{0, mean}.sample computes 0.0 - mean * log(1 - u),
    // and (-mean) * L is bit-equal to 0.0 - mean * L under IEEE
    // round-to-nearest (rounding is sign-symmetric).
    double us = neg_mean_us_[i] *
                stats::fast_log_positive_normal(1.0 - rng.uniform());
    if (rng() < kSpikeCutRaw) [[unlikely]]
      us += rng.uniform(200.0, 2000.0) * spike_util_[i];
    return us;
  }

  [[nodiscard]] std::int64_t sample_queueing_ns(Rng& rng) const {
    // Per-link truncation to integer nanoseconds mirrors the reference
    // path's per-link Duration::from_micros_f conversion.
    std::int64_t ns = 0;
    const std::size_t n = neg_mean_us_.size();
    for (std::size_t i = 0; i < n; ++i)
      ns += static_cast<std::int64_t>(sample_hop_us(i, rng) * 1e3);
    return ns;
  }

  // SoA link parameters, one entry per traversed link.
  std::vector<double> neg_mean_us_;  ///< -(M/M/1 mean queueing delay, us)
  std::vector<double> spike_util_;   ///< spike coefficient (clamped util)
  std::vector<LinkId> links_;
  Duration base_one_way_;
  double distance_km_ = 0.0;
  bool valid_ = false;
};

/// Largest safe conservative window for a sharded run whose cross-shard
/// traffic rides any of `paths`: the smallest latency floor among them.
/// Returns zero for an empty span — the caller must treat that as "no
/// conservative window exists" (a zero-latency cross-shard link admits
/// none either).
[[nodiscard]] inline Duration conservative_window(
    std::span<const CompiledPath> paths) {
  Duration window;
  for (const CompiledPath& path : paths) {
    const Duration floor = path.min_latency();
    if (window == Duration{} || floor < window) window = floor;
  }
  return window;
}

}  // namespace sixg::topo
