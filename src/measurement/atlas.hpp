#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "measurement/ping.hpp"
#include "netsim/simulator.hpp"
#include "stats/summary.hpp"
#include "topo/network.hpp"

namespace sixg::meas {

struct ProbeTag {};
using ProbeId = StrongId<ProbeTag>;

/// A measurement fleet in the style of RIPE Atlas (the infrastructure the
/// paper's campaign used, [16]): probes anchored at topology nodes execute
/// periodic measurement schedules on a shared discrete-event timeline.
/// Unlike GridCampaign (which integrates per-cell statistics analytically
/// over drive dwell times), AtlasFleet simulates the measurement *process*
/// itself: staggered schedules, per-probe cadence, loss, and wall-clock
/// alignment — the level of detail needed to study measurement-design
/// questions (how long must a campaign run, how many probes, ...).
class AtlasFleet {
 public:
  explicit AtlasFleet(const topo::Network& net);

  /// Every schedule pings once per period. Its first ping falls at a
  /// random offset within one period, drawn from the simulator RNG, so
  /// the fleet does not fire in bursts (Atlas "spread").
  static constexpr Duration kPeriod = Duration::seconds(15);
  /// Probability that a single measurement is lost (no sample).
  static constexpr double kLossRate = 0.02;

  /// Register a probe at `node`. Optional radio leg for mobile probes.
  ProbeId add_probe(std::string name, topo::NodeId node);
  ProbeId add_mobile_probe(std::string name, topo::NodeId node,
                           const radio::RadioLinkModel& radio,
                           radio::CellConditions conditions);

  /// Schedule a periodic ping from `probe` to `target`.
  void schedule_ping(ProbeId probe, topo::NodeId target);

  /// Run the whole fleet for `duration` on a fresh simulator.
  struct ProbeResult {
    std::string probe_name;
    stats::Summary rtt_ms;
    std::uint64_t scheduled = 0;
    std::uint64_t lost = 0;
  };
  [[nodiscard]] std::vector<ProbeResult> run(Duration duration,
                                             std::uint64_t seed);

 private:
  struct Probe {
    std::string name;
    topo::NodeId node;
    bool mobile = false;
    const radio::RadioLinkModel* radio = nullptr;  // not owned
    radio::CellConditions conditions;
  };
  struct Schedule {
    ProbeId probe;
    topo::NodeId target;
  };

  const topo::Network* net_;
  std::vector<Probe> probes_;
  std::vector<Schedule> schedules_;
};

}  // namespace sixg::meas
