#include "netsim/timer_wheel.hpp"

#include <bit>
#include <limits>

#include "common/assert.hpp"

namespace sixg::netsim {

namespace {

constexpr int kShiftNs = TimerWheel::kShiftNs;
constexpr int kSlotBits = TimerWheel::kSlotBits;
constexpr int kLevels = TimerWheel::kLevels;
constexpr std::uint32_t kSlots = TimerWheel::kSlots;

[[nodiscard]] std::uint64_t tick_of(TimePoint t) {
  return std::uint64_t(t.ns()) >> kShiftNs;
}

/// Start of `tick` in ns, saturating at int64 max (far top-level
/// rotations would otherwise overflow the shift).
[[nodiscard]] std::int64_t tick_to_ns_saturating(std::uint64_t tick) {
  constexpr std::uint64_t kMaxNs =
      std::uint64_t(std::numeric_limits<std::int64_t>::max());
  return std::int64_t(tick >= (kMaxNs >> kShiftNs) ? kMaxNs
                                                   : tick << kShiftNs);
}

/// Level a timer with deadline tick `tick` buckets at, relative to the
/// wheel's current tick: the highest differing bit picks the level
/// (coarser wheels for farther deadlines); beyond the top level's span
/// it clamps there and cascades later.
[[nodiscard]] int level_for(std::uint64_t tick, std::uint64_t now_tick) {
  const std::uint64_t diff = tick ^ now_tick;
  const int level = diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kSlotBits;
  return level >= kLevels ? kLevels - 1 : level;
}

/// Slot index of `tick` at `level`.
[[nodiscard]] std::uint32_t slot_for(std::uint64_t tick, int level) {
  return std::uint32_t(tick >> (kSlotBits * level)) & (kSlots - 1);
}

/// Next occurrence (in level-L slot counts) of slot `s` at or after the
/// current level-L position `cur`, as an absolute level-L tick. Slots at
/// or before the current position belong to the next rotation: only
/// timers clamped to the top level from beyond its span land there, and
/// their turn-over is a (harmless, early) cascade.
[[nodiscard]] std::uint64_t next_occurrence(std::uint64_t cur,
                                            std::uint32_t cs,
                                            std::uint32_t s) {
  if (s > cs) return (cur & ~std::uint64_t{kSlots - 1}) | s;
  return (((cur >> kSlotBits) + 1) << kSlotBits) | s;
}

}  // namespace

TimerWheel::TimerWheel() {
  for (auto& level : heads_) level.fill(kNil);
}

std::uint32_t TimerWheel::allocate() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  slab_.emplace_back();
  return std::uint32_t(slab_.size() - 1);
}

void TimerWheel::release(std::uint32_t idx) {
  Timer& t = slab_[idx];
  SIXG_ASSERT(t.state != State::kInBucket,
              "cannot release a timer still chained into a bucket");
  t.state = State::kFree;
  t.armed = false;
  t.cancel_requested = false;
  t.next = kNil;
  t.action.reset();
  ++t.generation;  // stale handles and staged firings now miss
  free_.push_back(idx);
}

void TimerWheel::bucket_insert(std::uint32_t idx, std::uint64_t tick) {
  Timer& t = slab_[idx];
  const int level = level_for(tick, now_tick_);
  const std::uint32_t slot = slot_for(tick, level);
  t.next = heads_[std::size_t(level)][slot];
  heads_[std::size_t(level)][slot] = idx;
  occupancy_[std::size_t(level)] |= std::uint64_t{1} << slot;
  t.state = State::kInBucket;
  ++bucketed_;
  if (t.armed) ++armed_bucketed_;
}

bool TimerWheel::schedule(std::uint32_t idx) {
  Timer& t = slab_[idx];
  SIXG_ASSERT(t.armed, "scheduling a disarmed timer");
  const std::uint64_t tick = tick_of(t.deadline);
  if (tick <= now_tick_) {
    t.state = State::kStaged;
    return true;  // due this very tick: caller stages it directly
  }
  bucket_insert(idx, tick);
  return false;
}

void TimerWheel::cancel_in_bucket(std::uint32_t idx) {
  Timer& t = slab_[idx];
  SIXG_ASSERT(t.state == State::kInBucket, "timer not in a bucket");
  if (t.armed) {
    t.armed = false;
    --armed_bucketed_;
  }
}

TimerWheel::Bucket TimerWheel::earliest_bucket() const {
  Bucket best{std::numeric_limits<std::uint64_t>::max(), -1, 0};
  for (int l = 0; l < kLevels; ++l) {
    const std::uint64_t occ = occupancy_[std::size_t(l)];
    if (occ == 0) continue;
    const std::uint64_t cur = now_tick_ >> (kSlotBits * l);
    const auto cs = std::uint32_t(cur) & (kSlots - 1);
    // Prefer slots strictly after the current position (this rotation);
    // otherwise the earliest occupied slot of the next rotation.
    const std::uint64_t after =
        cs + 1 >= kSlots ? 0 : occ & (~std::uint64_t{0} << (cs + 1));
    const auto s = std::uint32_t(std::countr_zero(after != 0 ? after : occ));
    const std::uint64_t t = next_occurrence(cur, cs, s) << (kSlotBits * l);
    if (t < best.tick) best = Bucket{t, l, s};
  }
  SIXG_ASSERT(best.level >= 0, "no occupied bucket in the timer wheel");
  return best;
}

TimePoint TimerWheel::next_due() const {
  return TimePoint::from_ns(tick_to_ns_saturating(earliest_bucket().tick));
}

void TimerWheel::expire_earliest(void (*stage)(void* ctx, std::uint32_t idx),
                                 void* ctx) {
  const Bucket bucket = earliest_bucket();

  // Advance wheel time to the bucket's turn-over point, then detach the
  // whole chain before processing: re-bucketed timers must land in
  // fresh chains, not be re-walked.
  now_tick_ = bucket.tick;
  auto& head = heads_[std::size_t(bucket.level)][bucket.slot];
  std::uint32_t idx = head;
  head = kNil;
  occupancy_[std::size_t(bucket.level)] &= ~(std::uint64_t{1} << bucket.slot);

  while (idx != kNil) {
    Timer& t = slab_[idx];
    const std::uint32_t next = t.next;
    t.next = kNil;
    --bucketed_;
    if (!t.armed) {
      // Lazily cancelled while waiting: reclaim now.
      t.state = State::kStaged;  // satisfy release()'s bucket check
      release(idx);
    } else {
      --armed_bucketed_;
      if (tick_of(t.deadline) <= now_tick_) {
        // Due: hand the firing to the kernel's event queue, which
        // orders it by the exact (deadline, seq) key.
        t.state = State::kStaged;
        stage(ctx, idx);
      } else {
        // Not yet due (coarse bucket): cascade to a finer level.
        // (bucket_insert restores the armed_bucketed_ count.)
        bucket_insert(idx, tick_of(t.deadline));
      }
    }
    idx = next;
  }
}

}  // namespace sixg::netsim
