#pragma once

#include "topo/network.hpp"

namespace sixg::topo {

/// The central-European Internet scenario of the paper's Section IV.
///
/// Reconstructs the AS constellation behind Table I / Fig. 4: a mobile
/// carrier whose user plane exits through a centralised CGNAT gateway in
/// Vienna, a university network in Klagenfurt reachable only through a
/// chain of transit providers that interconnect in Prague and Bucharest,
/// and — optionally — the local-peering and local-breakout fixes that
/// Section V proposes.
///
/// Valley-free AS path without local peering (8 ASes, 10 router hops):
///   MOBILE ↑ DATAPACKET ↑ CDN77 ↔peer(Prague) ZETNET ↓ AMANET ↓
///   IX-VIE(AS39912) ↓ ASCUS ↓ UNINET
struct EuropeOptions {
  /// Deploy a mobile-carrier breakout gateway in Klagenfurt (the paper's
  /// UPF-at-the-edge prerequisite for any local path).
  bool local_breakout = false;
  /// Peer the mobile carrier with the regional ISP/university at a local
  /// exchange in Klagenfurt (Section V-A). Only effective together with
  /// local_breakout: with the user plane anchored in Vienna the local
  /// peering port is unreachable from the UE side — exactly the
  /// interdependence the paper points out.
  bool local_peering = false;
};

/// Handles to the interesting endpoints of the scenario.
struct EuropeTopology {
  Network net;

  // Autonomous systems.
  AsId as_mobile;      ///< mobile carrier (UE attach + CGNAT)
  AsId as_datapacket;  ///< carrier's transit, Vienna
  AsId as_cdn77;       ///< upstream transit, Vienna/Prague
  AsId as_zetnet;      ///< transit with Prague/Bucharest core
  AsId as_amanet;      ///< transit, Bucharest
  AsId as_ixvie;       ///< AS39912, Vienna exchange operator
  AsId as_ascus;       ///< regional ISP, Vienna/Klagenfurt
  AsId as_uninet;      ///< university network, Klagenfurt

  // Endpoints.
  NodeId mobile_ue;          ///< the drive-test mobile node (UE, Klagenfurt)
  NodeId mobile_gw_vienna;   ///< 10.12.128.1 — CGNAT anchor in Vienna
  NodeId mobile_gw_klu;      ///< local breakout gateway (invalid if absent)
  NodeId university_probe;   ///< 195.140.139.133 — RIPE-Atlas-like probe, cell E3
  NodeId wired_host;         ///< wired residential host in the same sector
  NodeId cloud_vienna;       ///< Exoscale-like cloud target in Vienna

  // Candidate UPF anchor sites (used by the fivegcore placement study).
  NodeId upf_site_cloud;   ///< Vienna, next to the CGNAT
  NodeId upf_site_metro;   ///< Graz metro aggregation
  NodeId upf_site_edge;    ///< Klagenfurt edge site (invalid without breakout)
};

/// Build the scenario. Deterministic: no RNG involved.
[[nodiscard]] EuropeTopology build_europe(const EuropeOptions& options = {});

}  // namespace sixg::topo
