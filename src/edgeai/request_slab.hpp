/// @file request_slab.hpp — the per-request record store of the serving
/// engine. One SoA slab that grows to the in-flight high-water mark and
/// recycles its slots through the engine's free list; every kernel event
/// in the serving lifecycle carries a slab index instead of a capturing
/// closure, so the uplink -> submit -> complete -> downlink chain
/// performs zero heap allocations per request in steady state.
///
/// The slab deliberately stores only what outlives a single event hop:
/// the device-start timestamp (needed at record time, born at arrival)
/// and the lifecycle state. Values born at one hop and consumed at the
/// next — the uplink draw, queue/service shares, batch size — ride the
/// 48-byte inline event capture or the server queue's payload word, which
/// keeps the slab at 9 bytes per in-flight request.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"

namespace sixg::edgeai {

/// SoA request records, indexed by slot (recycled once a request settles).
struct RequestSlab {
  /// Lifecycle of one request; transitions are asserted by the engine.
  enum class State : std::uint8_t {
    kScheduled,  ///< idle: the slot holds no request
    kUplink,     ///< crossing the network towards the server
    kQueued,     ///< admitted to the server (queued or in a batch)
    kDropped,    ///< rejected by the bounded queue — terminal
    kDownlink,   ///< batch done, response crossing back
    kDone,       ///< recorded — terminal
    kTimedOut,   ///< deadline expired before a result — terminal
  };

  /// Per-request resilience flags (in `flags`, hardened mode only).
  static constexpr std::uint8_t kDelivered = 1;  ///< a copy won: recorded
  static constexpr std::uint8_t kTimedOutFlag = 2;  ///< deadline expired

  std::vector<TimePoint> device_start;  ///< request left the device
  std::vector<State> state;

  /// Resilience columns, engaged only by enable_hardening() (a fleet
  /// config with faults or a resilience policy); empty — zero bytes,
  /// zero writes — otherwise. POD on purpose: retry/hedge state rides
  /// the slab, not per-request allocations.
  bool hardened = false;
  std::vector<std::uint8_t> attempt;  ///< re-dispatch attempts used
  /// Live copies referencing the slot: in-flight primaries, hedge
  /// duplicates and pending backoff retries. The slot recycles only at
  /// zero, so a duplicate still queued on some server can never alias a
  /// reused slot.
  std::vector<std::uint8_t> pending;
  std::vector<std::uint8_t> flags;
  /// Bumped on every release: slot-carrying timer events (deadline,
  /// hedge, backoff) capture the epoch they were armed under and no-op
  /// on mismatch, so a stale timer from a recycled slot cannot fire
  /// against the wrong request.
  std::vector<std::uint32_t> epoch;

  /// SLO-class column, engaged only by enable_classes() (a fleet config
  /// with service classes); empty otherwise. The class is drawn at
  /// arrival and read at submit (lane pick) and record (per-class SLO
  /// scoring), so it must outlive the event hops.
  bool classed = false;
  std::vector<std::uint8_t> cls;

  void enable_hardening() {
    hardened = true;
    attempt.assign(state.size(), 0);
    pending.assign(state.size(), 0);
    flags.assign(state.size(), 0);
    epoch.assign(state.size(), 0);
  }

  void enable_classes() {
    classed = true;
    cls.assign(state.size(), 0);
  }

  /// Append one idle record and return its slot. The engine recycles
  /// slots through a free list (in-flight requests are bounded by queue
  /// capacity, not the request count), so the slab grows on demand to
  /// the high-water mark — that is what keeps a 100M-request sharded city
  /// run in O(in-flight) memory.
  [[nodiscard]] std::uint32_t grow() {
    device_start.push_back(TimePoint{});
    state.push_back(State::kScheduled);
    if (hardened) {
      attempt.push_back(0);
      pending.push_back(0);
      flags.push_back(0);
      epoch.push_back(0);
    }
    if (classed) cls.push_back(0);
    return std::uint32_t(state.size() - 1);
  }

  [[nodiscard]] std::size_t size() const { return state.size(); }
};

}  // namespace sixg::edgeai
