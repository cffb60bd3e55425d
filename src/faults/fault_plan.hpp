/// @file fault_plan.hpp — seed-deterministic fault schedules.
///
/// A FaultPlan is a *precomputed* list of fault events (server crashes
/// and repairs, link cuts and restores, straggler slow-down windows)
/// derived purely from (FaultConfig, seed). The plan is generated before
/// the simulation runs and executed by FaultInjector as ordinary kernel
/// events, so a faulted run is exactly as deterministic as a fault-free
/// one: same seed, same plan, same timeline — at any thread or worker
/// count. Nothing in the plan depends
/// on simulation state; nothing in the simulation perturbs the plan.
///
/// Draw-order contract (docs/ARCHITECTURE.md "Fault model"): each
/// (fault stream, target) pair owns an independent RNG derived from
/// `derive_seed(seed ^ kFaultSalt, stream << 32 | target)`. Streams
/// never share a generator, so adding a fault class — or a server — to a
/// config never shifts the events of another stream.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"

namespace sixg::faults {

/// Salt folded into the base seed before deriving per-stream fault RNGs,
/// keeping the fault schedule independent of every workload stream
/// (arrivals, radio, routing) derived from the same scenario seed.
inline constexpr std::uint64_t kFaultSalt = 0xfa17;

enum class FaultKind : std::uint8_t {
  kServerCrash,    ///< target = server index; duration = time to repair
  kServerRecover,  ///< target = server index
  kLinkFail,       ///< target = link index; duration = time to repair
  kLinkRestore,    ///< target = link index
  kStraggleBegin,  ///< target = server index; factor = slow-down multiplier
  kStraggleEnd,
};

/// One scheduled fault. `at` is the offset from run start (TimePoint{}).
/// Begin-type events carry the window length in `duration` so handlers
/// can log or reason about the repair without scanning ahead; the
/// matching end-type event is always present in the plan.
struct FaultEvent {
  Duration at;
  Duration duration;       ///< repair/slow-down window (begin kinds only)
  double factor = 1.0;     ///< straggle service-time multiplier
  FaultKind kind = FaultKind::kServerCrash;
  std::uint32_t target = 0;
};

/// Fault process parameters. All rates default to zero: a
/// default-constructed config generates an empty plan and the fault
/// machinery stays completely cold (no events armed, no RNG drawn).
///
/// Each stream is an alternating renewal process: exponential up-time
/// with the given per-target rate, then an exponential repair/slow-down
/// window with the given mean. Windows never overlap within one stream;
/// streams are independent.
struct FaultConfig {
  double server_crash_rate_per_s = 0.0;  ///< per server
  Duration server_mttr = Duration::millis(50);
  double link_fail_rate_per_s = 0.0;     ///< per link
  Duration link_mttr = Duration::millis(50);
  double straggler_rate_per_s = 0.0;     ///< per server
  Duration straggler_mean = Duration::millis(50);
  double straggler_factor = 4.0;         ///< service-time multiplier while on

  /// Generated events cover [0, horizon). Repairs of failures inside the
  /// horizon may land beyond it (the window runs its course). Zero
  /// horizon => no generated events.
  Duration horizon;
  std::uint32_t servers = 0;  ///< size of the server index space
  std::uint32_t links = 0;    ///< size of the link index space

  /// Hand-written events prepended to the generated schedule (after
  /// sorting they interleave by time; ties fire scripted-first). Lets a
  /// scenario force "the busiest server dies at t=2s" while background
  /// rates stay stochastic.
  std::vector<FaultEvent> scripted;

  /// Would this config produce any fault activity at all? The fleet uses
  /// this to keep the entire fault path cold when off.
  [[nodiscard]] bool any() const {
    if (!scripted.empty()) return true;
    if (horizon.is_zero()) return false;
    return server_crash_rate_per_s > 0.0 || link_fail_rate_per_s > 0.0 ||
           straggler_rate_per_s > 0.0;
  }
};

/// The materialised schedule: events sorted by time (stable, so
/// same-instant events keep generation order — scripted first, then
/// server crashes, stragglers, links, each by ascending target).
struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }

  /// Build the schedule for `config` from `seed`. Pure: same inputs,
  /// same plan, independent of threads, call site, or prior RNG use.
  [[nodiscard]] static FaultPlan generate(const FaultConfig& config,
                                          std::uint64_t seed);
};

}  // namespace sixg::faults
