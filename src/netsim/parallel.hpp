/// @file parallel.hpp — the process's one parallel job runner: independent
/// jobs fanned over worker threads that every caller shares.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace sixg::netsim {

/// Executes N independent jobs, the calling thread included.
///
/// This is the HPC entry point of the toolkit: measurement campaigns and
/// Monte-Carlo sweeps decompose into independent replications (one
/// Simulator each, seeded via derive_seed), and a sharded run's windows
/// into independent shards, so the natural parallelisation is a static
/// job list with an atomic cursor — no locks on the hot path, no shared
/// mutable simulation state, results merged by the caller
/// (stats::Summary::merge is associative).
///
/// A runner is a cheap value holding only its thread count. Every run()
/// call is one batch on a process-wide executor: the caller claims jobs
/// itself, and up to min(threads, jobs) − 1 of the executor's worker
/// threads may join it. The executor starts threads on demand, up to the
/// largest helper count any batch has asked for, and they sleep between
/// batches. A job may itself call run(): its caller works through the
/// inner batch, so nesting neither deadlocks nor adds threads.
class ParallelRunner {
 public:
  /// Wall-clock record of a series of batches, owned by the caller.
  /// Slot 0 is the caller; helpers take slots 1, 2, ... in the order
  /// they join each batch.
  struct Profile {
    struct Slot {
      std::uint64_t busy_ns = 0;  ///< time spent claiming and running jobs
      std::uint64_t batches = 0;  ///< batches the slot took part in
    };
    std::vector<Slot> slots;
    std::uint64_t wall_ns = 0;  ///< summed batch wall time
  };

  /// `threads` == 0 selects std::thread::hardware_concurrency().
  explicit ParallelRunner(unsigned threads = 0);

  [[nodiscard]] unsigned thread_count() const { return threads_; }

  /// Run job(i) for i in [0, job_count). Blocks until all jobs finish.
  /// With one thread or at most one job the jobs run inline, in index
  /// order. Jobs must not throw; they may run on worker threads.
  void run(std::size_t job_count,
           const std::function<void(std::size_t)>& job) const;

  /// Like run(); while the obs metrics are on, also adds this batch to
  /// `profile` (nothing for a batch that runs inline).
  void run(std::size_t job_count, const std::function<void(std::size_t)>& job,
           Profile& profile) const;

  /// Map i -> R over [0, job_count) in parallel; results land at their own
  /// index so output order is deterministic regardless of scheduling.
  template <typename R>
  [[nodiscard]] std::vector<R> map(
      std::size_t job_count,
      const std::function<R(std::size_t)>& job) const {
    std::vector<R> results(job_count);
    run(job_count, [&](std::size_t i) { results[i] = job(i); });
    return results;
  }

 private:
  unsigned threads_;
};

}  // namespace sixg::netsim
