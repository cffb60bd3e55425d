#include "core/whatif.hpp"

#include "measurement/ping.hpp"
#include "radio/conditions.hpp"
#include "radio/link_model.hpp"
#include "stats/summary.hpp"
#include "topo/europe.hpp"

namespace sixg::core {
namespace {

/// Radio conditions of the evaluation cell (moderate urban).
constexpr radio::CellConditions kConditions{
    .load = 0.35, .quality = 0.85, .bler = 0.05, .spike_rate = 0.01};
/// RTT draws per measured world.
constexpr std::uint32_t kSamples = 3000;
constexpr std::uint64_t kSeed = 0xbee5;

}  // namespace

std::vector<WhatIfResult> WhatIfEngine::local_peering() const {
  // Baseline: the measured world. Fixed: local breakout + local IX peering.
  const topo::EuropeTopology before = topo::build_europe();
  topo::EuropeOptions fixed_options;
  fixed_options.local_breakout = true;
  fixed_options.local_peering = true;
  const topo::EuropeTopology after = topo::build_europe(fixed_options);

  const radio::RadioLinkModel nsa{radio::AccessProfile::fiveg_nsa()};

  // PingMeasurement resolves the path once and samples through its
  // compiled path, so the per-world measurement loop is the same hot
  // path the campaigns use.
  const auto measure = [&](const topo::EuropeTopology& world) {
    const meas::PingMeasurement ping{world.net, world.mobile_ue,
                                     world.university_probe, nsa, kConditions};
    Rng rng{kSeed};
    return ping.run(kSamples, rng).summary_ms;
  };
  const auto path_of = [](const topo::EuropeTopology& world) {
    return world.net.find_path(world.mobile_ue, world.university_probe);
  };

  const stats::Summary rtt_before = measure(before);
  const stats::Summary rtt_after = measure(after);
  const topo::Path p_before = path_of(before);
  const topo::Path p_after = path_of(after);

  std::vector<WhatIfResult> out;
  out.push_back({"UE->probe network hops", double(p_before.hop_count()),
                 double(p_after.hop_count()), "hops"});
  out.push_back({"routed distance", p_before.distance_km, p_after.distance_km,
                 "km"});
  out.push_back({"mean RTL (5G access)", rtt_before.mean(), rtt_after.mean(),
                 "ms"});

  // Reference regime: a wired host on the locally peered fabric reaches
  // the probe in the 1-11 ms band Horvath [3] reports for this area.
  const meas::PingMeasurement wired_after{after.net, after.wired_host,
                                          after.university_probe};
  Rng rng{kSeed + 1};
  out.push_back({"RTL: mobile status quo vs wired on peered fabric",
                 rtt_before.mean(),
                 wired_after.run(kSamples, rng).summary_ms.mean(), "ms"});
  return out;
}

}  // namespace sixg::core
