#include "netsim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace sixg::netsim {

void EventQueue::push(TimePoint when, std::uint64_t seq,
                      InplaceAction action) {
  ++pushes_;
  std::uint32_t slot;
  if (free_.empty()) {
    slot = std::uint32_t(slab_.size());
    slab_.push_back(std::move(action));
  } else {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(action);
  }
  keys_.push_back(Key{when.ns(), seq, slot});
  sift_up(keys_.size() - 1);
}

ScheduledEvent EventQueue::pop() {
  const Key top = keys_.front();
  // The action slot is a dependent load from a large arena; issue it
  // now so the line arrives while the sift below runs.
  __builtin_prefetch(&slab_[top.slot]);
  const Key last = keys_.back();
  keys_.pop_back();
  if (!keys_.empty()) sift_down(last);
  free_.push_back(top.slot);
  return ScheduledEvent{TimePoint::from_ns(top.when_ns), top.seq,
                        std::move(slab_[top.slot])};
}

void EventQueue::sift_up(std::size_t hole) {
  const Key item = keys_[hole];
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!before(item, keys_[parent])) break;
    keys_[hole] = keys_[parent];
    hole = parent;
  }
  keys_[hole] = item;
}

void EventQueue::sift_down(const Key item) {
  const std::size_t n = keys_.size();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(keys_[c], keys_[best])) best = c;
    }
    if (!before(keys_[best], item)) break;
    keys_[hole] = keys_[best];
    hole = best;
  }
  keys_[hole] = item;
}

}  // namespace sixg::netsim
