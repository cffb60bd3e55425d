#include "netsim/event_queue.hpp"

namespace sixg::netsim {

ScheduledEvent EventQueue::pop() {
  const Key top = keys_.front();
  const std::uint32_t slot = slot_of(top);
  // The action slot is a dependent load from a large arena; issue it
  // now so the line arrives while the sift below runs.
  __builtin_prefetch(&slab_[slot]);
  const Key last = keys_.back();
  keys_.pop_back();
  if (!keys_.empty()) sift_down(last);
  free_.push_back(slot);
  return ScheduledEvent{when_of(top), std::move(slab_[slot])};
}

void EventQueue::sift_up(std::size_t hole) {
  const Key item = keys_[hole];
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!(item < keys_[parent])) break;
    keys_[hole] = keys_[parent];
    hole = parent;
  }
  keys_[hole] = item;
}

void EventQueue::sift_down(const Key item) {
  Key* const keys = keys_.data();
  const std::size_t n = keys_.size();
  std::size_t hole = 0;
  // Full families of four: a tournament of two pairwise compares, then
  // one between the winners. The compares feed index arithmetic, not
  // branches, so which child wins costs no misprediction.
  for (std::size_t first = 1; first + kArity <= n; first = hole * kArity + 1) {
    const std::size_t left = first + std::size_t(keys[first + 1] < keys[first]);
    const std::size_t right =
        first + 2 + std::size_t(keys[first + 3] < keys[first + 2]);
    const std::size_t best = keys[right] < keys[left] ? right : left;
    if (!(keys[best] < item)) {
      keys[hole] = item;
      return;
    }
    keys[hole] = keys[best];
    hole = best;
  }
  // The last, partial family (fewer than four children) is all leaves.
  const std::size_t first = hole * kArity + 1;
  if (first < n) {
    std::size_t best = first;
    for (std::size_t c = first + 1; c < n; ++c) {
      if (keys[c] < keys[best]) best = c;
    }
    if (keys[best] < item) {
      keys[hole] = keys[best];
      hole = best;
    }
  }
  keys[hole] = item;
}

}  // namespace sixg::netsim
