/// @file campaign.hpp — the sweep engine: one seeded job per grid point
/// over ParallelRunner, with per-point seed derivation and chunked
/// scheduling — the one implementation behind every scenario sweep.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "core/registry.hpp"
#include "netsim/parallel.hpp"

namespace sixg::core {

/// Declarative measurement campaign over a RunContext.
///
/// A campaign is a grid of `points` (parameter combinations), one
/// seeded job each. Seeds derive as ctx.seed_for(derive_seed(salt,
/// index)) — exactly the derivation the hand-rolled sweeps in
/// scenarios.cpp used, so migrating a sweep onto Campaign::sweep with
/// the same salt reproduces its results bit-for-bit. Execution order is
/// never observable: every job writes its own slot, and ParallelRunner
/// schedules whole chunks per cursor bump.
class Campaign {
 public:
  Campaign(const RunContext& ctx, std::uint64_t salt)
      : ctx_(&ctx), salt_(salt) {}

  /// One seeded job per grid point, results in point order.
  template <typename R>
  [[nodiscard]] std::vector<R> sweep(
      std::size_t points,
      const std::function<R(std::size_t point, std::uint64_t seed)>& fn)
      const {
    const auto runner = ctx_->runner();
    std::vector<R> results(points);
    runner.run_chunked(points, chunk_for(points, runner.thread_count()),
                       [&](std::size_t i) {
                         results[i] = fn(i, seed_for_job(i));
                       });
    return results;
  }

  /// The seed for grid job `index`: the campaign's salt stream.
  [[nodiscard]] std::uint64_t seed_for_job(std::uint64_t index) const {
    return ctx_->seed_for(derive_seed(salt_, index));
  }

  /// Auto chunk size: aim for several chunks per worker so the tail is
  /// short without paying one atomic bump per tiny job.
  [[nodiscard]] static std::size_t chunk_for(std::size_t jobs,
                                             unsigned threads);

 private:
  const RunContext* ctx_;
  std::uint64_t salt_;
};

}  // namespace sixg::core
