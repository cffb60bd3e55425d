/// @file request_slab.hpp — the per-request record store of the fleet
/// engine. One slab of fixed-size records that grows to the in-flight
/// high-water mark and recycles its slots through the engine's free list;
/// every kernel event in the request lifecycle carries a slab index
/// instead of a capturing closure, so the uplink -> submit -> complete ->
/// downlink chain performs zero heap allocations per request in steady
/// state.
///
/// A record stores only what outlives a single event hop: the
/// device-start timestamp (born at arrival, read at record time), the
/// lifecycle state, the SLO class, and the copy bookkeeping that
/// deadlines, retries and hedges settle against. Values born at one hop
/// and consumed at the next — the uplink draw, queue/service shares,
/// batch size — ride the 48-byte inline event capture or the server
/// queue's payload word, which keeps a record at 24 bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"

namespace sixg::edgeai {

/// Request records, indexed by slot (recycled once a request settles).
struct RequestSlab {
  /// Lifecycle of one request; transitions are asserted by the engine.
  enum class State : std::uint8_t {
    kScheduled,  ///< idle: the slot holds no request
    kUplink,     ///< crossing the network towards the server
    kQueued,     ///< admitted to the server (queued or in a batch)
    kDropped,    ///< every copy failed — terminal
    kDownlink,   ///< batch done, response crossing back
    kDone,       ///< recorded — terminal
    kTimedOut,   ///< deadline expired before a result — terminal
  };

  /// Settlement flags (Record::flags).
  static constexpr std::uint8_t kDelivered = 1;  ///< a copy won: recorded
  static constexpr std::uint8_t kTimedOutFlag = 2;  ///< deadline expired

  struct Record {
    TimePoint device_start;  ///< request left the device
    /// Bumped on every release: slot-carrying timer events (deadline,
    /// hedge, backoff) capture the epoch they were armed under and no-op
    /// on mismatch, so a stale timer from a recycled slot cannot fire
    /// against the wrong request.
    std::uint32_t epoch = 0;
    State state = State::kScheduled;
    std::uint8_t attempt = 0;  ///< re-dispatch attempts used
    /// Live copies referencing the slot: the primary, hedge duplicates
    /// and pending backoff retries. The slot recycles only at zero, so a
    /// duplicate still queued on some server can never alias a reused
    /// slot.
    std::uint8_t pending = 0;
    std::uint8_t flags = 0;
    /// SLO class index, drawn at arrival and read at submit (lane pick)
    /// and record (per-class SLO scoring); 0 without classes.
    std::uint8_t cls = 0;
  };
  static_assert(sizeof(Record) == 24);

  std::vector<Record> records;

  [[nodiscard]] Record& operator[](std::uint32_t slot) {
    return records[slot];
  }
  [[nodiscard]] const Record& operator[](std::uint32_t slot) const {
    return records[slot];
  }

  /// Append one idle record and return its slot. The engine recycles
  /// slots through a free list (in-flight requests are bounded by queue
  /// capacity, not the request count), so the slab grows on demand to
  /// the high-water mark — that is what keeps a 100M-request sharded city
  /// run in O(in-flight) memory.
  [[nodiscard]] std::uint32_t grow() {
    records.emplace_back();
    return std::uint32_t(records.size() - 1);
  }
};

}  // namespace sixg::edgeai
