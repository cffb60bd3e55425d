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

/// Reusable scratch for the two-phase batched path samplers. One scratch
/// per engine/loop, sized on first use and reused across refills — the
/// batch lane allocates nothing per request in steady state. The buffers
/// are flat SoA: one entry per staged hop *element* (traversal × hop) in
/// the first three, one entry per staged *traversal* in `queue_ns`;
/// `head_ns` is a spare per-traversal buffer for callers that interleave
/// a scalar prefix draw with the path draw (see edgeai::NetLeg).
struct PathBatchScratch {
  std::vector<double> log_x;   ///< phase 1: 1 - u; phase 2: finished term
  std::vector<double> coeff;   ///< -(mean queueing us) of the element's hop
  std::vector<double> addend;  ///< resolved spike term in us (0 = no spike)
  std::vector<std::int64_t> queue_ns;  ///< per-traversal queueing sum
  std::vector<std::int64_t> head_ns;   ///< caller-owned per-traversal extra
  std::size_t elems = 0;       ///< hop elements staged so far
  std::size_t traversals = 0;  ///< traversals staged so far
};

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

  /// Batch draw for campaign-style consumers: fills `out_ms` with
  /// consecutive RTT samples in milliseconds, consuming the RNG exactly
  /// as that many `sample_rtt` calls would. Routed through the two-phase
  /// batch lane (bit-identical to the scalar loop by construction).
  void sample_rtt_into(std::span<double> out_ms, Rng& rng) const {
    thread_local PathBatchScratch scratch;
    sample_rtt_into(out_ms, rng, scratch);
  }

  /// As above with a caller-owned scratch (zero-alloc steady state).
  void sample_rtt_into(std::span<double> out_ms, Rng& rng,
                       PathBatchScratch& scratch) const {
    std::size_t done = 0;
    while (done < out_ms.size()) {
      const std::size_t n = std::min(kBatchChunk, out_ms.size() - done);
      batch_begin(2 * n, scratch);
      for (std::size_t t = 0; t < 2 * n; ++t)
        batch_stage_traversal(rng, scratch);
      batch_finish(scratch);
      const std::int64_t base2 = 2 * base_one_way_.ns();
      for (std::size_t t = 0; t < n; ++t)
        out_ms[done + t] = Duration::nanos(base2 + scratch.queue_ns[2 * t] +
                                           scratch.queue_ns[2 * t + 1])
                               .ms();
      done += n;
    }
  }

  /// Batched `sample_queueing_ns`: one queueing sum per traversal,
  /// consuming the RNG exactly as `out_ns.size()` scalar draws would.
  void sample_queueing_into(std::span<std::int64_t> out_ns, Rng& rng,
                            PathBatchScratch& scratch) const {
    std::size_t done = 0;
    while (done < out_ns.size()) {
      const std::size_t n = std::min(kBatchChunk, out_ns.size() - done);
      batch_begin(n, scratch);
      for (std::size_t t = 0; t < n; ++t) batch_stage_traversal(rng, scratch);
      batch_finish(scratch);
      for (std::size_t t = 0; t < n; ++t) out_ns[done + t] = scratch.queue_ns[t];
      done += n;
    }
  }

  // ---- two-phase batch primitives --------------------------------------
  // Callers that interleave path draws with other per-request draws on
  // the same stream (edgeai::NetLeg) drive the phases directly: begin,
  // stage one traversal per request (phase 1 — strictly sequential RNG
  // consumption, identical draw order/count to the scalar sampler, spike
  // branch resolved from the raw word against kSpikeCutRaw), then finish
  // (phase 2 — order-free evaluation over the whole block).

  /// Reset `scratch` and reserve room for `traversals` traversals.
  void batch_begin(std::size_t traversals, PathBatchScratch& scratch) const {
    scratch.elems = 0;
    scratch.traversals = 0;
    const std::size_t cap = traversals * hop_count();
    if (scratch.log_x.size() < cap) {
      scratch.log_x.resize(cap);
      scratch.coeff.resize(cap);
      scratch.addend.resize(cap);
    }
    if (scratch.queue_ns.size() < traversals) scratch.queue_ns.resize(traversals);
  }

  /// Phase 1: pull one traversal's draws from `rng` and stage them.
  void batch_stage_traversal(Rng& rng, PathBatchScratch& scratch) const {
    const std::size_t n = neg_mean_us_.size();
    std::size_t e = scratch.elems;
    for (std::size_t i = 0; i < n; ++i, ++e) {
      scratch.log_x[e] = 1.0 - rng.uniform();
      scratch.coeff[e] = neg_mean_us_[i];
      if (rng() < kSpikeCutRaw) [[unlikely]]
        scratch.addend[e] = rng.uniform(200.0, 2000.0) * spike_util_[i];
      else
        scratch.addend[e] = 0.0;
    }
    scratch.elems = e;
    ++scratch.traversals;
  }

  /// Phase 2: evaluate all staged traversals; `scratch.queue_ns[t]` holds
  /// traversal t's queueing sum afterwards. Bit-identical to the scalar
  /// path: `(coeff*log + addend) * 1e3` matches `us = coeff*log;
  /// us += addend; us * 1e3` exactly when the spike fired, and adding
  /// literal 0.0 when it did not can only turn -0.0 into +0.0 — both of
  /// which truncate to the same integer nanoseconds. The per-element
  /// int64 truncation mirrors the scalar per-link conversion, and integer
  /// summation is associative, so the evaluation order here is free.
  void batch_finish(PathBatchScratch& scratch) const {
    double* x = scratch.log_x.data();
    for (std::size_t e = 0; e < scratch.elems; ++e)
      x[e] = (scratch.coeff[e] * stats::fast_log_positive_normal(x[e]) +
              scratch.addend[e]) *
             1e3;
    const std::size_t h = neg_mean_us_.size();
    std::size_t e = 0;
    for (std::size_t t = 0; t < scratch.traversals; ++t) {
      std::int64_t ns = 0;
      for (std::size_t i = 0; i < h; ++i, ++e)
        ns += static_cast<std::int64_t>(x[e]);
      scratch.queue_ns[t] = ns;
    }
  }

  /// True when `other` consumes RNG draws identically and maps every
  /// word sequence to the same latencies — the gate for sharing one
  /// pre-drawn sample block across several paths (see edgeai::FleetStudy).
  [[nodiscard]] bool same_sampling(const CompiledPath& other) const {
    return valid_ == other.valid_ &&
           base_one_way_.ns() == other.base_one_way_.ns() &&
           neg_mean_us_ == other.neg_mean_us_ &&
           spike_util_ == other.spike_util_;
  }

  /// Queueing draw of a single traversal of hop `i` (same draw the
  /// reference `Network::sample_queueing` makes for that link).
  [[nodiscard]] Duration sample_hop_queueing(std::size_t i, Rng& rng) const {
    return Duration::from_micros_f(sample_hop_us(i, rng));
  }

 private:
  friend class Network;

  /// Samples staged per batch_finish round; bounds scratch growth while
  /// keeping the finish loop long.
  static constexpr std::size_t kBatchChunk = 256;

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
