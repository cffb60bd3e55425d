#include "fivegcore/placement.hpp"

#include "common/assert.hpp"
#include "geo/coords.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"

namespace sixg::core5g {

const char* to_string(UpfPlacement placement) {
  switch (placement) {
    case UpfPlacement::kNone:
      return "none (remote breakout + detour)";
    case UpfPlacement::kCloud:
      return "cloud (Vienna)";
    case UpfPlacement::kMetro:
      return "metro (Graz)";
    case UpfPlacement::kEdge:
      return "edge (Klagenfurt)";
  }
  return "?";
}

UpfPlacementStudy::UpfPlacementStudy(const topo::EuropeTopology& europe,
                                     Config config)
    : europe_(&europe), config_(config) {}

UpfPlacementStudy::AnchorLeg UpfPlacementStudy::anchor_leg(
    UpfPlacement placement) const {
  const auto& net = europe_->net;
  const geo::LatLon ue = net.node(europe_->mobile_ue).position;
  AnchorLeg leg;
  switch (placement) {
    case UpfPlacement::kNone:
      SIXG_ASSERT(false, "kNone has no anchor leg");
      break;
    case UpfPlacement::kCloud:
      leg.distance_km =
          geo::distance_km(ue, net.node(europe_->upf_site_cloud).position);
      leg.extra = Duration::from_millis_f(2.4);  // CGNAT-grade processing
      break;
    case UpfPlacement::kMetro:
      leg.distance_km =
          geo::distance_km(ue, net.node(europe_->upf_site_metro).position);
      leg.extra = Duration::from_millis_f(0.9);
      break;
    case UpfPlacement::kEdge: {
      // Edge site is in the same city; a scenario without local breakout
      // still lets us *evaluate* the hypothetical edge anchor.
      const geo::LatLon site =
          europe_->upf_site_edge.valid()
              ? net.node(europe_->upf_site_edge).position
              : net.node(europe_->mobile_ue).position;
      leg.distance_km = std::max(3.0, geo::distance_km(ue, site));
      leg.extra = Duration::from_millis_f(0.25);
      break;
    }
  }
  leg.distance_km *= config_.tunnel_stretch;
  return leg;
}

PlacementResult UpfPlacementStudy::evaluate(
    UpfPlacement placement, const radio::AccessProfile& profile) const {
  const radio::RadioLinkModel radio_model{profile};
  Rng rng{derive_seed(config_.seed, std::uint64_t(placement) * 131 +
                                        std::uint64_t(profile.name.size()))};

  Upf upf{Upf::Config{.name = std::string("upf-") + to_string(placement),
                      .datapath = config_.datapath}};
  // Session table with the studied flow in the worst scan position.
  for (std::uint32_t i = 0; i < 32; ++i)
    (void)upf.rules().add_rule(PdrRule{i, 1000 + i, i / 4, int(i)});
  const std::uint64_t flow = 7777;
  (void)upf.rules().add_rule(PdrRule{99, flow, 99, 40});

  // The detour is sampled config_.samples times: compile it once and
  // draw from the flattened parameters instead of re-resolving links.
  std::optional<topo::CompiledPath> detour_path;
  std::optional<AnchorLeg> leg;
  if (placement == UpfPlacement::kNone) {
    const topo::Path path =
        europe_->net.find_path(europe_->mobile_ue, europe_->university_probe);
    SIXG_ASSERT(path.valid(), "university unreachable");
    detour_path = europe_->net.compile(path);
  } else {
    leg = anchor_leg(placement);
  }

  stats::Summary rtt_ms;
  stats::QuantileSample quantiles;
  for (std::uint32_t i = 0; i < config_.samples; ++i) {
    Duration sample = radio_model.sample_rtt(config_.conditions, rng);
    if (detour_path) {
      sample += detour_path->sample_rtt(rng);
    } else {
      const Duration one_way =
          Duration::from_micros_f(geo::fiber_delay_us(leg->distance_km)) +
          leg->extra;
      sample += one_way + one_way;
      sample += upf.sample_packet_latency(flow, rng);  // uplink pipeline
      sample += upf.sample_packet_latency(flow, rng);  // downlink pipeline
    }
    rtt_ms.add(sample.ms());
    quantiles.add(sample.ms());
  }

  PlacementResult r;
  r.placement = placement;
  r.access_profile = profile.name;
  r.mean_rtt_ms = rtt_ms.mean();
  r.p99_rtt_ms = quantiles.quantile(0.99);
  r.anchor_km = leg ? leg->distance_km : detour_path->distance_km();
  return r;
}

std::vector<PlacementResult> UpfPlacementStudy::sweep() const {
  const std::vector<radio::AccessProfile> profiles{
      radio::AccessProfile::fiveg_nsa(),
      radio::AccessProfile::fiveg_sa_urllc(),
      radio::AccessProfile::sixg(),
  };
  std::vector<PlacementResult> rows;
  rows.push_back(evaluate(UpfPlacement::kNone, profiles.front()));
  for (const auto placement :
       {UpfPlacement::kCloud, UpfPlacement::kMetro, UpfPlacement::kEdge}) {
    for (const auto& profile : profiles)
      rows.push_back(evaluate(placement, profile));
  }
  const double baseline = rows.front().mean_rtt_ms;
  for (PlacementResult& r : rows)
    r.reduction_vs_baseline = 1.0 - r.mean_rtt_ms / baseline;
  return rows;
}

TextTable UpfPlacementStudy::table(const std::vector<PlacementResult>& rows) {
  TextTable t{{"UPF placement", "Access", "Mean RTT (ms)", "p99 (ms)",
               "Anchor km", "Reduction"}};
  t.set_align(0, TextTable::Align::kLeft);
  t.set_align(1, TextTable::Align::kLeft);
  for (const PlacementResult& r : rows) {
    t.add_row({to_string(r.placement), r.access_profile,
               TextTable::num(r.mean_rtt_ms, 2),
               TextTable::num(r.p99_rtt_ms, 2), TextTable::num(r.anchor_km, 0),
               TextTable::num(r.reduction_vs_baseline * 100.0, 1) + " %"});
  }
  return t;
}

}  // namespace sixg::core5g
