/// @file sharded.hpp — conservative-window parallel simulation: one run
/// partitioned into spatial shards, each owning its own single-threaded
/// Simulator timeline, synchronized at fixed time-window barriers sized
/// by the minimum cross-shard latency (the lookahead).
///
/// The determinism contract extends to the sharded engine: for a FIXED
/// shard count, the output is byte-identical at any worker-thread count.
/// Three properties carry it:
///   1. Within a window, shards share no mutable state — each shard's
///      Simulator runs its own (when, seq) total order.
///   2. Cross-shard messages travel through per-(src, dst) single-writer
///      mailboxes: during a window only the one worker executing shard
///      `src` appends to src's outboxes, so append order is the source
///      timeline's event order, independent of scheduling.
///   3. Mailboxes drain at the barrier on the coordinating thread in a
///      fixed (dst, src, append-order) total order, so the destination
///      kernel assigns the same sequence numbers every run.
///
/// Causality is conservative (no rollback): a message posted during the
/// window ending at `horizon` must not be scheduled before `horizon`.
/// Callers guarantee it by sizing the window at most the minimum
/// cross-shard latency (see topo::CompiledPath::min_latency); post()
/// asserts the bound on every message.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "netsim/parallel.hpp"
#include "netsim/simulator.hpp"

namespace sixg::obs {
class Scope;
}  // namespace sixg::obs

namespace sixg::netsim {

/// Stream salt for shard-local seed derivation (see shard_seed).
inline constexpr std::uint64_t kShardStreamSalt = 0x5aa2d;

/// Seed of shard `shard` in a sharded run seeded with `base`. Shard 0
/// keeps the base seed itself, so a 1-shard run (and shard 0 of any run)
/// consumes exactly the streams the serial engine would — the byte-
/// equivalence anchor. Shards >= 1 derive through a dedicated salt
/// stream, disjoint from campaign replication streams (which derive as
/// derive_seed(base, derive_seed(campaign_salt, index))); the
/// non-collision is asserted across seeds in tests/test_campaign.cpp.
[[nodiscard]] constexpr std::uint64_t shard_seed(std::uint64_t base,
                                                 std::uint32_t shard) {
  return shard == 0 ? base
                    : derive_seed(derive_seed(base, kShardStreamSalt), shard);
}

/// A fleet of Simulator timelines advancing in conservative time windows.
///
/// Usage: construct with a shard count and a window no larger than the
/// minimum cross-shard link latency, seed each shard's initial events via
/// shard(k).schedule_at (or post() before run()), then run(). Model code
/// executing on shard `src`'s timeline sends work to shard `dst` with
/// post(src, dst, at, action); the action executes on dst's timeline at
/// `at`, which must be at or after the end of the posting window.
class ShardedSimulator {
 public:
  struct Config {
    std::uint32_t shards = 1;
    /// Barrier spacing — the conservative lookahead. Must be positive
    /// and no larger than the minimum latency of any cross-shard
    /// interaction (post() asserts each message against it).
    Duration window = Duration::millis(1);
    std::uint64_t seed = 1;
    /// Threads taking part in each window, the coordinating thread
    /// included; 0 = hardware concurrency. Clamped to the shard count.
    /// Never changes results.
    unsigned workers = 0;
  };

  explicit ShardedSimulator(const Config& config);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] std::uint32_t shard_count() const {
    return std::uint32_t(shards_.size());
  }
  [[nodiscard]] Duration window() const { return config_.window; }

  /// Shard k's own timeline, seeded with shard_seed(config.seed, k).
  /// Safe to touch from the owning shard's actions during a window, and
  /// from the coordinating thread between runs.
  [[nodiscard]] Simulator& shard(std::uint32_t k) { return shards_[k]->sim; }

  /// Barrier clock: the start of the window run() would execute next.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Send `action` to shard `dst`'s timeline, to execute at absolute
  /// time `at`. Callable from shard `src`'s executing actions (worker
  /// threads) and from the coordinating thread outside a window. While a
  /// window is executing, `at` must be at or after that window's end —
  /// the conservative causality bound; src == dst is a contract error
  /// (local work belongs on shard(src) directly).
  void post(std::uint32_t src, std::uint32_t dst, TimePoint at,
            Simulator::Action action);

  /// Run windows until every shard's timeline drains and every mailbox
  /// is empty. Like Simulator::run, a workload that re-arms forever
  /// (periodic timers) never returns.
  void run();

  /// Windows executed so far. During a window (i.e. from inside an
  /// executing action) this is the index of the current window.
  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  /// Cross-shard messages delivered at barriers so far.
  [[nodiscard]] std::uint64_t messages() const { return messages_; }

 private:
  struct Message {
    TimePoint at;
    Simulator::Action action;
  };

  /// One shard: its timeline plus its outboxes (one per destination).
  /// During a window, exactly one worker executes the shard, so the
  /// outboxes are single-writer; the coordinator reads them only after
  /// the barrier.
  struct Shard {
    Simulator sim;
    std::vector<std::vector<Message>> outbox;
    Shard(std::uint64_t seed, std::uint32_t shards)
        : sim(seed), outbox(shards) {}
  };

  [[nodiscard]] bool has_work() const;
  /// Deliver every queued message (fixed order), then run all shards to
  /// `horizon` in parallel and advance the barrier clock.
  void step_window(TimePoint horizon);
  void drain_mailboxes();

  Config config_;
  ParallelRunner runner_;  ///< one batch per window, shard k is job k
  std::vector<std::unique_ptr<Shard>> shards_;
  TimePoint now_;
  TimePoint horizon_;        ///< end of the executing window
  bool running_ = false;     ///< a window is executing right now
  std::uint64_t windows_ = 0;
  std::uint64_t messages_ = 0;

  /// Observability: when probes are enabled, the coordinator latches
  /// the binding decision before each window's batch (the runner's
  /// hand-off makes it visible to the helpers). Shard k's probes land in
  /// this run's shard-k scope no matter which thread runs it — the
  /// per-shard-slot rule the determinism contract needs — and runs that
  /// record at once write disjoint scopes. The destructor folds them
  /// into the obs runtime's shard tracks.
  bool bind_scopes_ = false;        ///< bind per-shard obs scopes this window
  std::vector<obs::Scope> scopes_;  ///< one per shard, made on first probe
  /// Wall-clock participant profile, filled while the obs metrics are
  /// on and published as the `workers` rows when the run is destroyed.
  ParallelRunner::Profile window_profile_;
};

}  // namespace sixg::netsim
