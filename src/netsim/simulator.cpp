#include "netsim/simulator.hpp"

#include <utility>

#include "common/assert.hpp"
#include "obs/probe.hpp"

namespace sixg::netsim {

namespace {

/// Once-per-run kernel counter flush: the per-event loop carries no
/// probe instructions at all — run()/run_until() snapshot the kernel's
/// own monotonic counters at entry and flush the deltas at exit. This
/// is what keeps the "compiled in but disabled" overhead of the kernel
/// at zero probe sites per event (bench/obs_overhead.cpp holds the
/// line at <= 2%).
struct KernelMeter {
  bool on = false;
  std::uint64_t seq0 = 0;
  std::uint64_t fired0 = 0;
  std::uint64_t pushes0 = 0;
};

KernelMeter meter_begin(std::uint64_t seq, std::uint64_t fired,
                        const EventQueue& queue) {
  KernelMeter m;
  m.on = obs::metrics_on();
  if (!m.on) return m;
  m.seq0 = seq;
  m.fired0 = fired;
  m.pushes0 = queue.pushes();
  return m;
}

void meter_flush(const KernelMeter& m, std::uint64_t seq, std::uint64_t fired,
                 const EventQueue& queue) {
  if (!m.on) return;
  obs::probe_count(obs::Metric::kKernelEventsScheduled, seq - m.seq0);
  obs::probe_count(obs::Metric::kKernelEventsFired, fired - m.fired0);
  obs::probe_count(obs::Metric::kKernelHeapPushes,
                   queue.pushes() - m.pushes0);
}

}  // namespace

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

// ------------------------------------------------------------- timers

Simulator::TimerHandle Simulator::arm_timer(Duration first_delay,
                                            Duration period,
                                            Action&& action) {
  SIXG_ASSERT(!first_delay.is_negative(), "delay must be non-negative");
  const std::uint32_t idx = wheel_.allocate();
  TimerWheel::Timer& t = wheel_.timer(idx);
  t.deadline = now_ + first_delay;
  t.seq = next_seq_++;  // same counter as one-shots: global FIFO order
  t.period = period;
  t.armed = true;
  t.cancel_requested = false;
  t.action = std::move(action);
  SIXG_OBS_COUNT(obs::Metric::kKernelTimersArmed, 1);
  const std::uint32_t generation = t.generation;
  if (wheel_.schedule(idx)) stage_timer(idx);
  return TimerHandle{this, idx, generation};
}

Simulator::TimerHandle Simulator::schedule_every(Duration first_delay,
                                                 Duration period,
                                                 Action&& action) {
  SIXG_ASSERT(period > Duration{}, "period must be positive");
  return arm_timer(first_delay, period, std::move(action));
}

Simulator::TimerHandle Simulator::schedule_once(Duration delay,
                                                Action&& action) {
  return arm_timer(delay, Duration{}, std::move(action));
}

void Simulator::stage_timer(std::uint32_t idx) {
  const TimerWheel::Timer& t = wheel_.timer(idx);
  // The queue event is a 16-byte stub (well within the inline buffer);
  // the action itself stays in the timer slab and is re-used across
  // firings — this is where the allocation-per-tick of the old
  // trampoline went away.
  queue_.push(t.deadline, t.seq,
              [this, idx, generation = t.generation] {
                fire_timer(idx, generation);
              });
}

void Simulator::fire_timer(std::uint32_t idx, std::uint32_t generation) {
  {
    const TimerWheel::Timer& t = wheel_.timer(idx);
    if (t.generation != generation) return;  // cancelled and recycled
    SIXG_ASSERT(t.armed && t.state == TimerWheel::State::kStaged,
                "staged firing found its timer in an impossible state");
  }
  // Move the action out for the call: the action may itself arm new
  // timers and grow the slab, which would relocate the closure we are
  // executing if it still lived there.
  TimerWheel::Timer& t = wheel_.timer(idx);
  t.state = TimerWheel::State::kFiring;
  InplaceAction action = std::move(t.action);
  action();

  TimerWheel::Timer& after = wheel_.timer(idx);  // slab may have moved
  if (after.cancel_requested || stopped_ || after.period.is_zero()) {
    wheel_.release(idx);
    return;
  }
  after.deadline = after.deadline + after.period;
  after.seq = next_seq_++;  // fresh FIFO position, as re-scheduling had
  after.action = std::move(action);
  if (wheel_.schedule(idx)) stage_timer(idx);
}

void Simulator::cancel_timer(std::uint32_t idx, std::uint32_t generation) {
  TimerWheel::Timer& t = wheel_.timer(idx);
  if (t.generation != generation || !t.armed) return;
  SIXG_OBS_COUNT(obs::Metric::kKernelTimersCancelled, 1);
  switch (t.state) {
    case TimerWheel::State::kInBucket:
      wheel_.cancel_in_bucket(idx);  // lazy: reclaimed at bucket turn-over
      break;
    case TimerWheel::State::kStaged:
      // The queued firing dies on its generation check.
      wheel_.release(idx);
      break;
    case TimerWheel::State::kFiring:
      t.cancel_requested = true;  // fire_timer releases after the action
      break;
    case TimerWheel::State::kFree:
      SIXG_ASSERT(false, "armed timer on the free list");
      break;
  }
}

bool Simulator::timer_active(std::uint32_t idx,
                             std::uint32_t generation) const {
  const TimerWheel::Timer& t = wheel_.timer(idx);
  return t.generation == generation && t.armed && !t.cancel_requested;
}

// ---------------------------------------------------------------- run

void Simulator::advance_wheel(bool limited, TimePoint horizon) {
  while (wheel_.has_bucketed()) {
    const TimePoint due = wheel_.next_due();
    if (limited && due >= horizon) break;
    if (!queue_.empty() && queue_.top_when() < due) break;
    wheel_.expire_earliest(
        [](void* ctx, std::uint32_t idx) {
          static_cast<Simulator*>(ctx)->stage_timer(idx);
        },
        this);
  }
}

void Simulator::run() {
  const KernelMeter meter = meter_begin(next_seq_, processed_, queue_);
  while (!stopped_) {
    advance_wheel(false, TimePoint{});
    if (queue_.empty()) break;
    ScheduledEvent ev = queue_.pop();
    SIXG_ASSERT(ev.when >= now_, "event queue ordering violated");
    now_ = ev.when;
    ++processed_;
    ev.action();
  }
  meter_flush(meter, next_seq_, processed_, queue_);
}

void Simulator::run_until(TimePoint horizon) {
  const KernelMeter meter = meter_begin(next_seq_, processed_, queue_);
  while (!stopped_) {
    advance_wheel(true, horizon);
    if (queue_.empty() || queue_.top_when() >= horizon) break;
    ScheduledEvent ev = queue_.pop();
    SIXG_ASSERT(ev.when >= now_, "event queue ordering violated");
    now_ = ev.when;
    ++processed_;
    ev.action();
  }
  if (now_ < horizon) now_ = horizon;
  meter_flush(meter, next_seq_, processed_, queue_);
}

}  // namespace sixg::netsim
