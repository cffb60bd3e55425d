/// @file event_queue.hpp — the kernel's pending-event store: one 4-ary
/// min-heap of small keys over an action arena the heap never touches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "netsim/inplace_action.hpp"

namespace sixg::netsim {

/// One scheduled event as handed back by pop(). `seq` is the
/// kernel-wide schedule counter: it breaks equal-time ties in
/// scheduling order, which is what makes replications bit-for-bit
/// deterministic.
struct ScheduledEvent {
  TimePoint when;
  std::uint64_t seq = 0;
  InplaceAction action;
};

/// Pending-event store: O(log n) push and pop at any queue depth.
///
/// Two structure-of-arrays pieces:
///  * `slab_` — the InplaceAction payloads, addressed by slot and
///    recycled through a free list. An action is touched exactly twice
///    (construct on push, move-out on pop) no matter how long it waits
///    or how often the heap shuffles its key.
///  * `keys_` — a 4-ary implicit min-heap of trivially-copyable 24-byte
///    {when, seq, slot} keys, every pending event.
///
/// Pop order is the strict total (when, seq) order; seq is unique, so
/// determinism does not depend on sift tie-breaking.
///
/// Why 4-ary: half the levels of a binary heap per pop, and the four
/// children sit in one or two cache lines of the flat key array, so the
/// extra comparisons per level are nearly free. No workload keeps more
/// than a few hundred events pending (docs/ARCHITECTURE.md "Kernel
/// internals" has the measured depths), so a sift crosses at most five
/// levels.
class EventQueue {
 public:
  [[nodiscard]] bool empty() const { return keys_.empty(); }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  /// Earliest pending time; callable only when non-empty.
  [[nodiscard]] TimePoint top_when() const {
    return TimePoint::from_ns(keys_.front().when_ns);
  }

  void push(TimePoint when, std::uint64_t seq, InplaceAction action);

  /// Remove and return the earliest event.
  ScheduledEvent pop();

  /// Lifetime push count. The observability layer reads it as a
  /// once-per-run delta; it is a plain member like the servers'
  /// counters, not a probe — the hot path stays probe-free.
  [[nodiscard]] std::uint64_t pushes() const { return pushes_; }

 private:
  struct Key {
    std::int64_t when_ns;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static constexpr std::size_t kArity = 4;

  static bool before(const Key& a, const Key& b) {
    return a.when_ns != b.when_ns ? a.when_ns < b.when_ns : a.seq < b.seq;
  }

  void sift_up(std::size_t hole);
  void sift_down(Key item);

  std::uint64_t pushes_ = 0;         ///< lifetime push() calls
  std::vector<Key> keys_;            ///< 4-ary heap
  std::vector<InplaceAction> slab_;  ///< action payloads, by slot
  std::vector<std::uint32_t> free_;  ///< recycled slab slots
};

}  // namespace sixg::netsim
