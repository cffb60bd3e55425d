#include "topo/europe.hpp"

#include "common/assert.hpp"
#include "geo/gazetteer.hpp"
#include "geo/grid.hpp"

namespace sixg::topo {

namespace {

/// Mean utilisation of long-haul links (drives queueing jitter).
constexpr double kCoreUtilization = 0.35;
/// Extra one-way latency of the CGNAT/anchor gateway (address
/// translation, traffic inspection, tunnel termination).
constexpr Duration kCgnatExtra = Duration::from_millis_f(2.4);
/// Extra one-way latency of wired residential access (GPON/DOCSIS).
constexpr Duration kWiredAccessExtra = Duration::from_millis_f(4.2);

geo::LatLon city(std::string_view name) {
  const auto c = geo::Gazetteer::central_europe().find(name);
  SIXG_ASSERT(c.has_value(), "city missing from gazetteer");
  return c->position;
}

geo::LatLon sector_cell(const char* label) {
  const auto grid = geo::SectorGrid::klagenfurt_sector();
  const auto idx = grid.parse_label(label);
  SIXG_ASSERT(idx.has_value(), "bad sector cell label");
  return grid.cell_center(*idx);
}
}  // namespace

EuropeTopology build_europe(const EuropeOptions& opt) {
  EuropeTopology t;
  Network& net = t.net;

  const geo::LatLon klu = city("Klagenfurt");
  const geo::LatLon vie = city("Vienna");
  const geo::LatLon prg = city("Prague");
  const geo::LatLon buh = city("Bucharest");
  const geo::LatLon grz = city("Graz");
  // Geography inside the evaluation sector matches the paper's Table I
  // narrative: the RIPE-Atlas-like probe sits at the university campus in
  // cell E3; the drive-test UE reference position is cell C2 — the two are
  // less than 5 km apart.
  const geo::LatLon campus = sector_cell("E3");
  const geo::LatLon ue_pos = sector_cell("C2");

  // --- autonomous systems --------------------------------------------------
  t.as_mobile = net.add_as(8447, "MobileAT");
  t.as_datapacket = net.add_as(60068, "DataPacket");
  t.as_cdn77 = net.add_as(62005, "CDN77");
  t.as_zetnet = net.add_as(39392, "ZetNet");
  t.as_amanet = net.add_as(43571, "AmaNet");
  t.as_ixvie = net.add_as(39912, "IX-Vienna");
  t.as_ascus = net.add_as(42876, "Ascus");
  t.as_uninet = net.add_as(1853, "UniNet-Klagenfurt");

  // --- nodes (names/addresses mirror the paper's Table I) -----------------
  t.mobile_ue = net.add_node("mobile-ue", "10.64.11.23", NodeKind::kHost,
                             t.as_mobile, ue_pos, Duration::micros(50));
  t.mobile_gw_vienna =
      net.add_node("10.12.128.1", "10.12.128.1", NodeKind::kGateway,
                   t.as_mobile, vie, Duration::micros(350));

  const NodeId dp_vie =
      net.add_node("unn-37-19-223-61.datapacket.com", "37.19.223.61",
                   NodeKind::kRouter, t.as_datapacket, vie);
  const NodeId cdn77_vie =
      net.add_node("vl204.vie-itx1-core-2.cdn77.com", "185.156.45.138",
                   NodeKind::kRouter, t.as_cdn77, vie);
  const NodeId zet_prg =
      net.add_node("zetservers.peering.cz", "185.0.20.31", NodeKind::kIxpPort,
                   t.as_zetnet, prg);
  const NodeId zet_buh =
      net.add_node("vie-dr2-cr1.zet.net", "103.246.249.33", NodeKind::kRouter,
                   t.as_zetnet, buh);
  const NodeId ama_buh =
      net.add_node("amanet-cust.zet.net", "185.104.63.33", NodeKind::kRouter,
                   t.as_amanet, buh);
  const NodeId ix_vie =
      net.add_node("ae2-97.mx204-1.ix.vie.at.as39912.net", "185.211.219.155",
                   NodeKind::kIxpPort, t.as_ixvie, vie);
  const NodeId ascus_vie =
      net.add_node("003-228-016-195.ascus.at", "195.16.228.3",
                   NodeKind::kRouter, t.as_ascus, vie);
  const NodeId ascus_klu =
      net.add_node("180-246-016-195.ascus.at", "195.16.246.180",
                   NodeKind::kRouter, t.as_ascus, klu);
  t.university_probe =
      net.add_node("195.140.139.133", "195.140.139.133", NodeKind::kProbe,
                   t.as_uninet, campus, Duration::micros(120));

  t.wired_host = net.add_node("wired-host-klu", "195.16.200.77",
                              NodeKind::kHost, t.as_ascus, klu,
                              Duration::micros(60));
  t.cloud_vienna = net.add_node("exoscale-vie", "194.182.160.10",
                                NodeKind::kHost, t.as_ixvie, vie,
                                Duration::micros(80));

  // UPF candidate sites inside the mobile carrier's footprint.
  t.upf_site_cloud = net.add_node("upf-cloud-vie", "10.12.200.1",
                                  NodeKind::kUpfSite, t.as_mobile, vie,
                                  Duration::micros(200));
  t.upf_site_metro = net.add_node("upf-metro-grz", "10.12.201.1",
                                  NodeKind::kUpfSite, t.as_mobile, grz,
                                  Duration::micros(200));

  // --- links ---------------------------------------------------------------
  Network::LinkOptions core;
  core.utilization = kCoreUtilization;

  // Carrier backhaul: the UE's user plane is hauled to the Vienna anchor
  // (GTP tunnel over the carrier's transport network). The CGNAT adds
  // processing latency on top of the fibre run.
  {
    Network::LinkOptions backhaul = core;
    backhaul.extra_latency = kCgnatExtra;
    backhaul.utilization = 0.45;  // carrier aggregation runs hotter
    net.add_link(t.mobile_ue, t.mobile_gw_vienna, LinkRelation::kIntraAs,
                 backhaul);
  }
  net.add_link(t.upf_site_cloud, t.mobile_gw_vienna, LinkRelation::kIntraAs,
               core);
  net.add_link(t.upf_site_metro, t.mobile_gw_vienna, LinkRelation::kIntraAs,
               core);

  // Transit chain upward from the carrier.
  net.add_link(t.mobile_gw_vienna, dp_vie, LinkRelation::kCustomerOfB, core);
  net.add_link(dp_vie, cdn77_vie, LinkRelation::kCustomerOfB, core);

  // The only interconnection towards the university side happens at a
  // Prague exchange: CDN77 peers with ZetNet there.
  net.add_link(cdn77_vie, zet_prg, LinkRelation::kPeer, core);

  // ZetNet's core runs through Bucharest.
  net.add_link(zet_prg, zet_buh, LinkRelation::kIntraAs, core);
  net.add_link(zet_buh, ama_buh, LinkRelation::kProviderOfB, core);
  net.add_link(ama_buh, ix_vie, LinkRelation::kProviderOfB, core);
  net.add_link(ix_vie, ascus_vie, LinkRelation::kProviderOfB, core);
  net.add_link(ascus_vie, ascus_klu, LinkRelation::kIntraAs, core);
  net.add_link(ascus_klu, t.university_probe, LinkRelation::kProviderOfB,
               core);

  // Wired residential access in the sector (GPON/DOCSIS tail).
  {
    Network::LinkOptions access = core;
    access.extra_latency = kWiredAccessExtra;
    access.utilization = 0.25;
    net.add_link(t.wired_host, ascus_klu, LinkRelation::kIntraAs, access);
  }

  // Cloud target hangs off the Vienna exchange fabric.
  net.add_link(t.cloud_vienna, ix_vie, LinkRelation::kIntraAs, core);
  // The regional ISP reaches the exchange fabric directly (it is an IX
  // member), which is what gives wired hosts their short path to the cloud.

  if (opt.local_breakout) {
    t.mobile_gw_klu = net.add_node("10.12.129.1", "10.12.129.1",
                                   NodeKind::kGateway, t.as_mobile, klu,
                                   Duration::micros(250));
    Network::LinkOptions local = core;
    local.extra_latency = Duration::micros(200);
    net.add_link(t.mobile_ue, t.mobile_gw_klu, LinkRelation::kIntraAs, local);
    net.add_link(t.mobile_gw_klu, t.mobile_gw_vienna, LinkRelation::kIntraAs,
                 core);
    t.upf_site_edge = net.add_node("upf-edge-klu", "10.12.202.1",
                                   NodeKind::kUpfSite, t.as_mobile, klu,
                                   Duration::micros(200));
    net.add_link(t.upf_site_edge, t.mobile_gw_klu, LinkRelation::kIntraAs,
                 local);

    if (opt.local_peering) {
      // AAIX-style local exchange: the carrier and the university peer
      // directly in Klagenfurt, collapsing the continental detour.
      Network::LinkOptions ix = core;
      ix.extra_latency = Duration::micros(100);
      net.add_link(t.mobile_gw_klu, t.university_probe, LinkRelation::kPeer,
                   ix);
      // The regional ISP also joins the local exchange.
      net.add_link(t.mobile_gw_klu, ascus_klu, LinkRelation::kPeer, ix);
    }
  }

  return t;
}

}  // namespace sixg::topo
