/// @file injector.hpp — executes a FaultPlan on the event kernel.
///
/// The injector arms ONE kernel event per plan entry before the run
/// starts, each dispatching to a caller-supplied hook. It owns no
/// policy: what "server 3 crashes" means is decided by the hooks (the
/// fleet wires them to AcceleratorServer::fail(), Network::remove_link()
/// + path recompilation, and so on). Hooks left unset skip their events.
#pragma once

#include <cstdint>
#include <functional>

#include "common/time.hpp"
#include "faults/fault_plan.hpp"
#include "netsim/simulator.hpp"

namespace sixg::faults {

class FaultInjector {
 public:
  /// Per-kind fault handlers. Begin-type hooks receive the window length
  /// (time until the matching end event) so handlers can precompute
  /// repair-aware state without scanning the plan.
  struct Hooks {
    std::function<void(std::uint32_t server, Duration mttr)> server_down;
    std::function<void(std::uint32_t server)> server_up;
    std::function<void(std::uint32_t link, Duration mttr)> link_down;
    std::function<void(std::uint32_t link)> link_up;
    std::function<void(std::uint32_t server, double factor)> straggle_begin;
    std::function<void(std::uint32_t server)> straggle_end;
  };

  /// Arm one event per plan entry on `sim` (events fire at
  /// TimePoint{} + entry.at). Call once, before sim.run(), while the
  /// simulator clock is at or before every plan entry. The injector
  /// borrows `plan` and must outlive the run.
  void arm(netsim::Simulator& sim, const FaultPlan& plan, Hooks hooks);

  /// Events dispatched so far (skipped-for-missing-hook ones included).
  [[nodiscard]] std::uint64_t fired() const { return fired_; }

 private:
  void fire(std::uint32_t index);

  const FaultPlan* plan_ = nullptr;
  Hooks hooks_;
  std::uint64_t fired_ = 0;
};

}  // namespace sixg::faults
