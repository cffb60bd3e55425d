#include "faults/injector.hpp"

#include <utility>

#include "common/assert.hpp"
#include "obs/probe.hpp"

namespace sixg::faults {

void FaultInjector::arm(netsim::Simulator& sim, const FaultPlan& plan,
                        Hooks hooks) {
  SIXG_ASSERT(plan_ == nullptr, "FaultInjector::arm() is one-shot");
  plan_ = &plan;
  hooks_ = std::move(hooks);
  for (std::uint32_t i = 0; i < plan.events.size(); ++i) {
    sim.schedule_at(TimePoint{} + plan.events[i].at, [this, i] { fire(i); });
  }
}

void FaultInjector::fire(std::uint32_t index) {
  ++fired_;
  SIXG_OBS_COUNT(obs::Metric::kFaultEvents, 1);
  const FaultEvent& ev = plan_->events[index];
  switch (ev.kind) {
    case FaultKind::kServerCrash:
      if (hooks_.server_down) hooks_.server_down(ev.target, ev.duration);
      return;
    case FaultKind::kServerRecover:
      if (hooks_.server_up) hooks_.server_up(ev.target);
      return;
    case FaultKind::kLinkFail:
      if (hooks_.link_down) hooks_.link_down(ev.target, ev.duration);
      return;
    case FaultKind::kLinkRestore:
      if (hooks_.link_up) hooks_.link_up(ev.target);
      return;
    case FaultKind::kStraggleBegin:
      if (hooks_.straggle_begin) hooks_.straggle_begin(ev.target, ev.factor);
      return;
    case FaultKind::kStraggleEnd:
      if (hooks_.straggle_end) hooks_.straggle_end(ev.target);
      return;
  }
}

}  // namespace sixg::faults
