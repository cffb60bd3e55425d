#include "measurement/atlas.hpp"

#include "common/assert.hpp"

namespace sixg::meas {

AtlasFleet::AtlasFleet(const topo::Network& net) : net_(&net) {}

ProbeId AtlasFleet::add_probe(std::string name, topo::NodeId node) {
  const ProbeId id{std::uint32_t(probes_.size())};
  probes_.push_back(Probe{std::move(name), node, false, nullptr, {}});
  return id;
}

ProbeId AtlasFleet::add_mobile_probe(std::string name, topo::NodeId node,
                                     const radio::RadioLinkModel& radio,
                                     radio::CellConditions conditions) {
  const ProbeId id{std::uint32_t(probes_.size())};
  probes_.push_back(Probe{std::move(name), node, true, &radio, conditions});
  return id;
}

void AtlasFleet::schedule_ping(ProbeId probe, topo::NodeId target,
                               const ScheduleOptions& options) {
  SIXG_ASSERT(probe.value() < probes_.size(), "unknown probe");
  SIXG_ASSERT(options.period > Duration{}, "period must be positive");
  schedules_.push_back(Schedule{probe, target, options});
}

std::vector<AtlasFleet::ProbeResult> AtlasFleet::run(Duration duration,
                                                     std::uint64_t seed) {
  netsim::Simulator sim{seed};
  std::vector<ProbeResult> results(probes_.size());
  for (std::size_t i = 0; i < probes_.size(); ++i)
    results[i].probe_name = probes_[i].name;

  // Build the per-schedule measurement closures. Paths are resolved and
  // compiled once (routing is static during a campaign) and samples
  // draw from the simulator's RNG so the whole run is a pure function of
  // the seed. Each firing is then a lookup-free CompiledPath draw — no
  // allocation, no libm.
  std::vector<PingMeasurement> pings;
  pings.reserve(schedules_.size());
  for (const Schedule& schedule : schedules_) {
    const Probe& probe = probes_[schedule.probe.value()];
    if (probe.mobile) {
      pings.emplace_back(*net_, probe.node, schedule.target, *probe.radio,
                         probe.conditions);
    } else {
      pings.emplace_back(*net_, probe.node, schedule.target);
    }
    SIXG_ASSERT(pings.back().reachable(), "target unreachable from probe");
  }

  // Each schedule is one wheel-backed periodic timer phase-locked to its
  // start offset; run_until() leaves firings at or beyond the horizon
  // unfired. The kernel re-arms in place, so a campaign of any length
  // allocates nothing per ping.
  for (std::size_t s = 0; s < schedules_.size(); ++s) {
    const Schedule& schedule = schedules_[s];
    const PingMeasurement* ping = &pings[s];
    ProbeResult* result = &results[schedule.probe.value()];
    const double loss = schedule.options.loss_rate;
    const Duration offset =
        schedule.options.spread_start
            ? schedule.options.period * sim.rng().uniform()
            : Duration{};
    sim.schedule_every(offset, schedule.options.period,
                       [sim_ptr = &sim, ping, result, loss] {
                         ++result->scheduled;
                         if (loss > 0.0 && sim_ptr->rng().chance(loss)) {
                           ++result->lost;
                         } else {
                           result->rtt_ms.add(
                               ping->sample_ms(sim_ptr->rng()));
                         }
                       });
  }

  sim.run_until(TimePoint{} + duration);
  return results;
}

}  // namespace sixg::meas
