/// @file simulator.hpp — single-threaded discrete-event simulator kernel,
/// the deterministic heart of every replication.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "netsim/event_queue.hpp"
#include "netsim/inplace_action.hpp"
#include "netsim/timer_wheel.hpp"

namespace sixg::netsim {

/// Discrete-event simulator kernel.
///
/// Single-threaded by design: one Simulator instance owns one event
/// timeline. Parallelism happens one level up (ParallelRunner executes
/// independent replications on worker threads, each with its own
/// Simulator), which keeps the kernel free of synchronisation and the
/// replications bit-for-bit deterministic.
///
/// Internals (see docs/ARCHITECTURE.md "Kernel internals"): one-shot
/// events live in a 4-ary implicit heap over a flat vector, actions are
/// small-buffer-optimised InplaceAction records (no heap allocation for
/// captures <= 48 bytes), and periodic/cancellable timers wait in a
/// hierarchical timer wheel that stages each firing into the heap with
/// its exact (deadline, seq) key — so the processing order is the same
/// total (when, seq) order the original binary-heap kernel produced.
class Simulator {
 public:
  using Action = InplaceAction;

  explicit Simulator(std::uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Kernel-owned random generator. Model code should draw from this (or
  /// from generators split() off it) so a run is a pure function of seed.
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Schedule `action` at absolute time `at` (must not precede now()).
  void schedule_at(TimePoint at, Action action);

  /// Schedule `action` after `delay` (must be non-negative).
  void schedule_after(Duration delay, Action action);

  /// Cancellation token for wheel-backed timers (see below).
  class TimerHandle;

  /// Schedule `action` at now() + `first_delay` (which may be zero) and
  /// then every `period`, until the simulation stops or the returned
  /// handle is cancelled — phase-offset pacing loops (measurement
  /// cadences, frame clocks) without a wrapper event.
  TimerHandle schedule_every(Duration first_delay, Duration period,
                             Action action);

  /// Cancellable one-shot on the timer wheel: like schedule_after, but
  /// the returned handle can disarm it in O(1) — no stale no-op event
  /// left behind (the batch-window pattern).
  TimerHandle schedule_once(Duration delay, Action action);

  /// Run until the event queue drains or `stop()` is called.
  void run();

  /// Run events strictly before `horizon`, then set the clock to the
  /// horizon. Events at exactly the horizon do NOT fire (half-open
  /// interval); they stay pending for a later run()/run_until(). The
  /// clock lands on the horizon even when stop() ended the run early —
  /// run_until means "simulate this window", and the window elapsed
  /// (same contract as the pre-arena kernel).
  void run_until(TimePoint horizon);

  /// Request termination from inside an action; the current action
  /// completes, then run() returns.
  void stop() { stopped_ = true; }

  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Pending work: queued one-shot events (including staged timer
  /// firings) plus armed timers still waiting in the wheel.
  [[nodiscard]] std::size_t pending_events() const {
    return queue_.size() + wheel_.armed_bucketed();
  }
  [[nodiscard]] std::uint64_t processed_events() const { return processed_; }

 private:
  friend class TimerHandle;

  TimerHandle arm_timer(Duration first_delay, Duration period,
                        Action action);
  /// Push timer `idx`'s next firing into the event queue.
  void stage_timer(std::uint32_t idx);
  /// Staged-firing entry point: runs the action and re-arms or releases.
  void fire_timer(std::uint32_t idx, std::uint32_t generation);
  void cancel_timer(std::uint32_t idx, std::uint32_t generation);
  [[nodiscard]] bool timer_active(std::uint32_t idx,
                                  std::uint32_t generation) const;
  /// Turn wheel buckets over until nothing can precede the queue head
  /// (bounded by `horizon` when limited).
  void advance_wheel(bool limited, TimePoint horizon);

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
  EventQueue queue_;
  TimerWheel wheel_;
  Rng rng_;
};

/// Cancellation token for wheel-backed timers. Cancel is O(1) and safe
/// from inside the timer's own action (the current firing completes,
/// then the timer disarms instead of re-arming). Copies share the same
/// underlying timer, and handles outliving the timer are harmless: a
/// generation check turns stale cancels into no-ops.
class Simulator::TimerHandle {
 public:
  TimerHandle() = default;

  void cancel() {
    if (sim_ != nullptr) sim_->cancel_timer(index_, generation_);
  }

  [[nodiscard]] bool active() const {
    return sim_ != nullptr && sim_->timer_active(index_, generation_);
  }

 private:
  friend class Simulator;
  TimerHandle(Simulator* sim, std::uint32_t index, std::uint32_t generation)
      : sim_(sim), index_(index), generation_(generation) {}

  Simulator* sim_ = nullptr;
  std::uint32_t index_ = 0;
  std::uint32_t generation_ = 0;
};

}  // namespace sixg::netsim
