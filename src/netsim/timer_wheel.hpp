/// @file timer_wheel.hpp — hierarchical timer wheel backing the kernel's
/// periodic and cancellable timers: O(1) arm/cancel, no per-tick
/// allocation, exact-deadline firing through the event queue.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "netsim/inplace_action.hpp"

namespace sixg::netsim {

/// Hierarchical timing wheel (hashed wheels, one per resolution level).
///
/// Timers live in a slab (flat vector + free list) and are chained into
/// wheel buckets intrusively, so arming, firing and re-arming a periodic
/// timer allocates nothing once the slab has warmed up — this replaces
/// the per-tick shared_ptr trampoline the old kernel re-armed through.
///
/// Levels: `kLevels` wheels of `kSlots` slots each; level L has a slot
/// width of 2^(kShiftNs + kSlotBits·L) ns, so level 0 resolves ~1 µs and
/// the whole hierarchy spans ~52 days before far-future timers clamp to
/// the top level and cascade once per top-level rotation (correct, just
/// not O(1) for those).
///
/// Determinism: buckets are a *placement* structure only. A bucket's
/// start time lower-bounds every deadline inside it; when a bucket comes
/// due the wheel hands its timers back to the kernel, which inserts each
/// firing into the central event queue with the timer's exact
/// (deadline, seq) key. Equal-time ordering against one-shot events is
/// therefore decided by the same global sequence counter as always —
/// the wheel never reorders anything.
class TimerWheel {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  // Geometry: 64-slot levels over 1024 ns ticks.
  static constexpr int kShiftNs = 10;  ///< 1 tick = 1024 ns
  static constexpr int kSlotBits = 6;
  static constexpr int kLevels = 7;
  static constexpr std::uint32_t kSlots = 1u << kSlotBits;

  enum class State : std::uint8_t {
    kFree,      ///< slab slot on the free list
    kInBucket,  ///< chained into a wheel bucket
    kStaged,    ///< firing handed to the event queue, not yet run
    kFiring,    ///< action executing right now
  };

  struct Timer {
    TimePoint deadline;        ///< exact next firing time
    std::uint64_t seq = 0;     ///< FIFO tie-break key of the next firing
    Duration period;           ///< zero = one-shot
    bool armed = false;              ///< false once cancelled
    bool cancel_requested = false;   ///< cancel() arrived mid-action
    State state = State::kFree;
    std::uint32_t generation = 0;    ///< stale-handle / stale-event guard
    std::uint32_t next = kNil;       ///< intrusive bucket chain
    InplaceAction action;
  };

  TimerWheel();

  /// Slab access. Indices stay valid until release(); references do NOT
  /// survive allocate() (vector growth), so callers must not hold one
  /// across user code or another allocation.
  [[nodiscard]] Timer& timer(std::uint32_t idx) { return slab_[idx]; }
  [[nodiscard]] const Timer& timer(std::uint32_t idx) const {
    return slab_[idx];
  }

  /// Take a slab slot (generation is preserved across reuse and bumped
  /// by release, which is what invalidates old handles/stagings).
  [[nodiscard]] std::uint32_t allocate();

  /// Return a slot to the free list and invalidate outstanding
  /// references to it (generation bump). Must not be in a bucket.
  void release(std::uint32_t idx);

  /// Place timer `idx` by its deadline. Returns true when the deadline's
  /// tick is not in the wheel's future — the caller must stage the
  /// firing into its event queue directly instead.
  [[nodiscard]] bool schedule(std::uint32_t idx);

  /// Lazy-cancel support: mark an in-bucket timer dead; the slot is
  /// reclaimed when its bucket next turns over.
  void cancel_in_bucket(std::uint32_t idx);

  /// Any timers waiting in buckets (armed or lazily cancelled)?
  [[nodiscard]] bool has_bucketed() const { return bucketed_ != 0; }
  /// Armed timers waiting in buckets (excludes lazy-cancelled).
  [[nodiscard]] std::size_t armed_bucketed() const {
    return armed_bucketed_;
  }

  /// Earliest possible deadline of any bucketed timer (a lower bound:
  /// actual deadlines are >= this). Only valid when has_bucketed().
  [[nodiscard]] TimePoint next_due() const;

  /// Advance the wheel to its earliest occupied bucket and turn that
  /// bucket over: due timers are handed to `stage` (exact deadline in
  /// the timer record), not-yet-due ones cascade to finer levels, and
  /// lazily-cancelled ones are released.
  void expire_earliest(void (*stage)(void* ctx, std::uint32_t idx),
                       void* ctx);

 private:
  /// An occupied bucket: its absolute turn-over tick (a lower bound on
  /// every deadline inside it), level and slot.
  struct Bucket {
    std::uint64_t tick;
    int level;
    std::uint32_t slot;
  };
  /// The earliest-turning occupied bucket; the wheel must hold one.
  [[nodiscard]] Bucket earliest_bucket() const;
  void bucket_insert(std::uint32_t idx, std::uint64_t tick);

  std::vector<Timer> slab_;
  std::vector<std::uint32_t> free_;
  std::uint64_t now_tick_ = 0;  ///< wheel time; lags the simulator clock
  std::size_t bucketed_ = 0;
  std::size_t armed_bucketed_ = 0;
  std::array<std::uint64_t, kLevels> occupancy_{};
  std::array<std::array<std::uint32_t, kSlots>, kLevels> heads_;
};

}  // namespace sixg::netsim
