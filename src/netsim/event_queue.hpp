/// @file event_queue.hpp — the kernel's pending-event store: one 4-ary
/// min-heap of packed 16-byte keys over an action arena the heap never
/// touches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "netsim/inplace_action.hpp"

namespace sixg::netsim {

/// One scheduled event as handed back by pop().
struct ScheduledEvent {
  TimePoint when;
  InplaceAction action;
};

/// Pending-event store: O(log n) push and pop at any queue depth.
///
/// Two structure-of-arrays pieces:
///  * `slab_` — the InplaceAction payloads, addressed by slot and
///    recycled through a free list. An action is touched exactly twice
///    (relocated in on push, relocated out on pop) no matter how long it
///    waits or how often the heap shuffles its key.
///  * `keys_` — a 4-ary implicit min-heap of 16-byte keys, every pending
///    event. A key is one `unsigned __int128` whose integer order is the
///    (when, seq) order: the high word is `when` with its sign bit
///    flipped, the low word `seq << kSlotBits | slot`. A compare is one
///    128-bit subtract, so the sift picks children without branching.
///
/// Pop order is the strict total (when, seq) order; seq is unique, so
/// the slot bits below it never decide an order and determinism does
/// not depend on sift tie-breaking.
///
/// Why 4-ary: half the levels of a binary heap per pop, and the four
/// children are 64 contiguous bytes of the flat key array, so the extra
/// comparisons per level are nearly free. No workload keeps more
/// than a few hundred events pending (docs/ARCHITECTURE.md "Kernel
/// internals" has the measured depths), so a sift crosses at most five
/// levels.
class EventQueue {
 public:
  /// The key's low word holds the slot in its low kSlotBits and seq
  /// above them: at most 2^24 events pending and 2^40 schedules per
  /// simulator. push() asserts both.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1}
                                           << (64 - kSlotBits);

  [[nodiscard]] bool empty() const { return keys_.empty(); }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  /// Earliest pending time; callable only when non-empty.
  [[nodiscard]] TimePoint top_when() const { return when_of(keys_.front()); }

  void push(TimePoint when, std::uint64_t seq, InplaceAction&& action) {
    SIXG_ASSERT(seq < kMaxSeq,
                "event seq must stay below 2^40, its width in the packed "
                "heap key");
    ++pushes_;
    std::uint32_t slot;
    if (free_.empty()) {
      SIXG_ASSERT(slab_.size() < kMaxSlots,
                  "pending events must stay below 2^24, the slot width in "
                  "the packed heap key");
      slot = std::uint32_t(slab_.size());
      slab_.push_back(std::move(action));
    } else {
      slot = free_.back();
      free_.pop_back();
      slab_[slot] = std::move(action);
    }
    keys_.push_back(key_of(when, seq, slot));
    sift_up(keys_.size() - 1);
  }

  /// Remove and return the earliest event.
  ScheduledEvent pop();

  /// Lifetime push count. The observability layer reads it as a
  /// once-per-run delta; it is a plain member like the servers'
  /// counters, not a probe — the hot path stays probe-free.
  [[nodiscard]] std::uint64_t pushes() const { return pushes_; }

 private:
  using Key = unsigned __int128;
  static constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
  static constexpr std::size_t kArity = 4;

  static Key key_of(TimePoint when, std::uint64_t seq, std::uint32_t slot) {
    return Key(std::uint64_t(when.ns()) ^ kSignBit) << 64 |
           (seq << kSlotBits | slot);
  }
  static TimePoint when_of(Key key) {
    return TimePoint::from_ns(
        std::int64_t(std::uint64_t(key >> 64) ^ kSignBit));
  }
  static std::uint32_t slot_of(Key key) {
    return std::uint32_t(key) & std::uint32_t(kMaxSlots - 1);
  }

  void sift_up(std::size_t hole);
  void sift_down(Key item);

  std::uint64_t pushes_ = 0;         ///< lifetime push() calls
  std::vector<Key> keys_;            ///< 4-ary heap
  std::vector<InplaceAction> slab_;  ///< action payloads, by slot
  std::vector<std::uint32_t> free_;  ///< recycled slab slots
};

}  // namespace sixg::netsim
