#include "core/scenarios.hpp"

#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "apps/ar_game.hpp"
#include "apps/federated.hpp"
#include "common/assert.hpp"
#include "apps/protocols.hpp"
#include "apps/traffic.hpp"
#include "core/campaign.hpp"
#include "core/gap.hpp"
#include "core/requirements.hpp"
#include "core/scenario.hpp"
#include "core/whatif.hpp"
#include "edgeai/accelerator.hpp"
#include "edgeai/energy.hpp"
#include "edgeai/fleet.hpp"
#include "edgeai/model.hpp"
#include "edgeai/offload.hpp"
#include "edgeai/serving.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "fivegcore/autoscale.hpp"
#include "fivegcore/placement.hpp"
#include "fivegcore/selector.hpp"
#include "fivegcore/session.hpp"
#include "fivegcore/upf.hpp"
#include "geo/gazetteer.hpp"
#include "measurement/atlas.hpp"
#include "measurement/ping.hpp"
#include "oran/handover.hpp"
#include "oran/qos_xapp.hpp"
#include "oran/ric.hpp"
#include "radio/energy.hpp"
#include "radio/link_model.hpp"
#include "radio/mmwave.hpp"
#include "slicing/admission.hpp"
#include "slicing/hypervisor.hpp"
#include "slicing/reconfig.hpp"
#include "stats/bootstrap.hpp"
#include "stats/histogram.hpp"
#include "stats/reservoir.hpp"
#include "stats/summary.hpp"
#include "topo/europe.hpp"
#include "topo/traceroute.hpp"

namespace sixg::core {
namespace {

/// printf-style formatting into a std::string for note lines.
[[gnu::format(printf, 1, 2)]] std::string strf(const char* fmt, ...) {
  char buf[512];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

/// The campaign seed every grid scenario derives from its context, so
/// they share one determinism story.
constexpr std::uint64_t kCampaignSalt = 0x9a24;

/// The wired-population baseline both fig2 and gap-analysis anchor their
/// mobile/wired ratio on — defined once so the two always agree.
stats::Summary wired_baseline(const KlagenfurtStudy& study,
                              const RunContext& ctx) {
  return study.wired_baseline(2000, ctx.seed_for(77));
}

/// Nearest gazetteer city to a position (the "map pin" of Figure 4).
std::string nearest_city(const geo::LatLon& pos) {
  const auto& gaz = geo::Gazetteer::central_europe();
  std::string best = "?";
  double best_km = 1e18;
  for (const auto& city : gaz.cities()) {
    const double d = geo::distance_km(pos, city.position);
    if (d < best_km) {
      best_km = d;
      best = city.name;
    }
  }
  return best;
}

// ------------------------------------------------------------- figures

ScenarioResult fig1(const RunContext& ctx) {
  ScenarioResult r;
  const KlagenfurtStudy study;
  const auto& grid = study.grid();
  const auto& pop = study.population();

  TextTable density{[&] {
    std::vector<std::string> header{"Row"};
    for (int col = 0; col < grid.cols(); ++col)
      header.push_back(std::to_string(col + 1));
    return header;
  }()};
  for (int row = 0; row < grid.rows(); ++row) {
    std::vector<std::string> cells{std::string(1, char('A' + row))};
    for (int col = 0; col < grid.cols(); ++col) {
      const geo::CellIndex c{row, col};
      cells.push_back(TextTable::num(pop.density(c), 0) +
                      (pop.sparse(c) ? "*" : " "));
    }
    density.add_row(std::move(cells));
  }
  r.add_table(std::move(density),
              "Population density per cell (inhabitants/km^2, * = sparse "
              "<1000):");
  r.add_note(strf("sector population: %.0f", pop.total_population()));

  // One campaign for both the trace listing and the count table, so the
  // plans shown are exactly the drives the report measured.
  const auto campaign =
      study.campaign(study.access_profile(), ctx.seed_for(kCampaignSalt));
  const auto plans = campaign.plans();
  r.add_note(strf("Drive traces (%zu mobile nodes):", plans.size()));
  for (std::size_t n = 0; n < plans.size(); ++n) {
    r.add_note(strf("  node %zu: %4zu cell visits over %s, %d distinct cells",
                    n, plans[n].visits().size(),
                    plans[n].total_duration().str().c_str(),
                    plans[n].traversed_cell_count(grid)));
  }

  const auto runner = ctx.runner();
  const auto report = campaign.run(runner);
  r.add_table(report.count_table(),
              "Measurement counts per cell ('-' = not traversed):");
  r.add_anchor("traversed cells", report.traversed_count(), "33");
  r.add_anchor("suppressed cells (<10 samples)", report.suppressed_count(),
               "\"a few\" (border regions)");
  return r;
}

ScenarioResult fig2(const RunContext& ctx) {
  ScenarioResult r;
  const KlagenfurtStudy study;
  const auto report =
      study.campaign(study.access_profile(), ctx.seed_for(kCampaignSalt))
          .run(ctx.runner());

  r.add_table(report.mean_table());
  r.add_note(strf("(0.0 = traversed but fewer than %u measurements; '-' = "
                  "not traversed)",
                  meas::GridReport::kMinSamples));

  const auto min_mean = report.min_mean();
  const auto max_mean = report.max_mean();
  const auto wired = wired_baseline(study, ctx);
  const double ratio = report.mean_of_cell_means().mean() / wired.mean();

  r.add_anchor("min cell mean @ " + min_mean.label, min_mean.value,
               "61 ms @ C1");
  r.add_anchor("max cell mean @ " + max_mean.label, max_mean.value,
               "110 ms @ C3");
  r.add_anchor("wired baseline mean (ms)", wired.mean(), "1-11 ms [3]");
  r.add_anchor("mobile/wired mean ratio", ratio, "~7x");
  return r;
}

ScenarioResult fig3(const RunContext& ctx) {
  ScenarioResult r;
  const KlagenfurtStudy study;
  const auto report =
      study.campaign(study.access_profile(), ctx.seed_for(kCampaignSalt))
          .run(ctx.runner());

  r.add_table(report.stddev_table());

  const auto min_sd = report.min_stddev();
  const auto max_sd = report.max_stddev();
  r.add_anchor("min cell stddev @ " + min_sd.label, min_sd.value,
               "1.8 ms @ B3");
  r.add_anchor("max cell stddev @ " + max_sd.label, max_sd.value,
               "46.4 ms @ E5");
  return r;
}

ScenarioResult fig4(const RunContext&) {
  ScenarioResult r;
  const KlagenfurtStudy study;
  const auto& europe = study.europe();
  const auto path =
      europe.net.find_path(europe.mobile_ue, europe.university_probe);

  TextTable t{{"Leg", "From", "To", "City", "Leg km", "Cum. km"}};
  t.set_align(1, TextTable::Align::kLeft);
  t.set_align(2, TextTable::Align::kLeft);
  t.set_align(3, TextTable::Align::kLeft);
  double cum = 0.0;
  for (std::size_t i = 0; i < path.links.size(); ++i) {
    const auto& link = europe.net.link(path.links[i]);
    const auto& from = europe.net.node(path.nodes[i]);
    const auto& to = europe.net.node(path.nodes[i + 1]);
    cum += link.length_km;
    t.add_row({TextTable::integer(std::int64_t(i + 1)), from.name, to.name,
               nearest_city(to.position), TextTable::num(link.length_km, 0),
               TextTable::num(cum, 0)});
  }
  r.add_table(std::move(t));

  const auto& gaz = geo::Gazetteer::central_europe();
  const double loop_km = gaz.distance_km("Vienna", "Prague") +
                         gaz.distance_km("Prague", "Bucharest") +
                         gaz.distance_km("Bucharest", "Vienna");

  r.add_anchor("total routed distance (km)", path.distance_km, "2544 km");
  r.add_anchor("Vienna-Prague-Bucharest-Vienna loop (km)", loop_km,
               "the detour Fig. 4 shows");
  r.add_anchor("deterministic one-way floor (ms)", path.base_one_way.ms(),
               "majority of the 65 ms RTL");
  return r;
}

ScenarioResult table1(const RunContext& ctx) {
  ScenarioResult r;
  const KlagenfurtStudy study;
  const auto& europe = study.europe();
  Rng rng{ctx.seed_for(7)};

  const auto trace = topo::traceroute(europe.net, europe.mobile_ue,
                                      europe.university_probe, rng);
  r.add_table(trace.table());

  const auto c2 = study.grid().parse_label("C2");
  const radio::RadioLinkModel nsa{study.access_profile()};
  const meas::PingMeasurement ping{europe.net, europe.mobile_ue,
                                   europe.university_probe, nsa,
                                   study.rem().at(*c2)};
  Rng ping_rng{ctx.seed_for(11)};
  const auto result = ping.run(500, ping_rng);

  const double straight = geo::distance_km(
      europe.net.node(europe.mobile_ue).position,
      europe.net.node(europe.university_probe).position);

  r.add_anchor("network hops", double(trace.hop_count()), "10");
  r.add_anchor("network-layer RTL (ms)", trace.rtt_ms, "part of 65 ms");
  r.add_anchor("end-to-end RTL incl. 5G access, best (ms)",
               result.summary_ms.min(), "65 ms (single trace)");
  r.add_anchor("end-to-end RTL incl. 5G access, mean (ms)",
               result.summary_ms.mean(), ">62 ms (Sec. V-B)");
  r.add_anchor("UE->probe straight-line distance (km)", straight, "<5 km");
  return r;
}

ScenarioResult fig2_6g(const RunContext& ctx) {
  ScenarioResult r;
  const std::uint64_t seed = ctx.seed_for(kCampaignSalt);
  const KlagenfurtStudy measured;
  const auto measured_report =
      measured.campaign(measured.access_profile(), seed).run(ctx.runner());

  KlagenfurtStudy::Options options;
  options.europe.local_breakout = true;
  options.europe.local_peering = true;
  const KlagenfurtStudy fixed{options};

  const auto sa_report =
      fixed.campaign(radio::AccessProfile::fiveg_sa_urllc(), seed)
          .run(ctx.runner());
  const auto sixg_report =
      fixed.campaign(radio::AccessProfile::sixg(), seed).run(ctx.runner());

  r.add_table(sa_report.mean_table(),
              "5G-SA URLLC + local peering, mean RTL per cell (ms):");
  r.add_table(sixg_report.mean_table(),
              "6G target + local peering, mean RTL per cell (ms):");

  r.add_anchor("measured 5G grid mean (ms)",
               measured_report.mean_of_cell_means().mean(),
               "61-110 ms band (Fig. 2)");
  r.add_anchor("SA+peering grid mean (ms)",
               sa_report.mean_of_cell_means().mean(),
               "5-6.2 ms class (Sec. V-B)");
  r.add_anchor("6G grid mean (ms)", sixg_report.mean_of_cell_means().mean(),
               "sub-1 ms goal (Sec. II-A)");
  r.add_anchor("max cell under 6G (ms)", sixg_report.max_mean().value,
               "every cell meets the AR budget");
  return r;
}

// ------------------------------------------------- requirements and gap

ScenarioResult requirements(const RunContext&) {
  ScenarioResult r;
  const auto& registry = RequirementsRegistry::paper_registry();
  const std::vector<GenerationProfile> generations{
      GenerationProfile::fiveg_claimed(),
      GenerationProfile::fiveg_measured_urban(),
      GenerationProfile::sixg_target(),
  };
  r.add_table(registry.feasibility_matrix(generations),
              "Feasibility matrix (latency! = RTT budget violated):");
  r.add_table(apps::DomainTraffic::matrix(),
              "Domain traffic profiles (Sec. III-B/III-C):");

  const apps::ScalabilityModel scalability;
  r.add_note(strf("Scalability (Sec. II-C/III-C): 2030 forecast %.0f billion "
                  "devices over %.1f M km^2 urban area",
                  scalability.forecast_devices_2030 / 1e9,
                  scalability.urbanised_area_km2 / 1e6));
  r.add_note(strf("  required density: %.0f devices/km^2",
                  scalability.required_density()));
  r.add_note(strf("  5G admits %.0f /km^2 -> %s",
                  scalability.devices_per_km2_5g,
                  scalability.feasible_5g() ? "feasible" : "INSUFFICIENT"));
  r.add_note(strf("  6G admits %.0f /km^2 -> %s",
                  scalability.devices_per_km2_6g,
                  scalability.feasible_6g() ? "feasible" : "INSUFFICIENT"));

  r.add_anchor("binding requirement (ms)",
               registry.binding_requirement().user_perceived.ms(),
               "16.6 ms (60 FPS)");
  r.add_anchor("6G device density (/km^2)", scalability.devices_per_km2_6g,
               "hundreds of thousands+ [9]");
  return r;
}

ScenarioResult gap_analysis(const RunContext& ctx) {
  ScenarioResult r;
  const KlagenfurtStudy study;
  const auto report =
      study.campaign(study.access_profile(), ctx.seed_for(kCampaignSalt))
          .run(ctx.runner());
  const auto wired = wired_baseline(study, ctx);

  const GapAnalysis gap{
      report, wired,
      RequirementsRegistry::paper_registry().binding_requirement()};
  r.add_table(gap.summary_table());

  const auto& f = gap.findings();
  r.add_anchor("requirement excess (%)", f.requirement_excess_percent,
               "~270 %");
  r.add_anchor("mobile/wired ratio", f.mobile_over_wired, "~7x");

  Rng rng{ctx.seed_for(5)};
  stats::Summary app_added;
  for (int i = 0; i < 4000; ++i) {
    const Duration overhead =
        apps::ProtocolOverheadModel::sample_overhead(apps::IotProtocol::kMqtt,
                                                     rng) +
        apps::ProtocolOverheadModel::sample_overhead(apps::IotProtocol::kMqtt,
                                                     rng) +
        Duration::from_millis_f(18.0);  // service-side inference/render
    app_added.add(overhead.ms());
  }
  r.add_anchor("application-layer addition (ms)", app_added.mean(),
               "+35 ms on average [21][22]");
  return r;
}

ScenarioResult phy_latency(const RunContext& ctx) {
  ScenarioResult r;
  const radio::MmWavePhyModel phy;
  Rng rng{ctx.seed_for(31)};
  stats::Histogram hist{0.0, 20.0, 80};
  for (int i = 0; i < 300000; ++i) hist.add(phy.sample_one_way(rng).ms());

  r.add_note("mmWave PHY one-way latency CDF:");
  for (const double ms : {0.5, 1.0, 2.0, 3.0, 5.0, 10.0}) {
    r.add_note(strf("  P(latency < %4.1f ms) = %6.2f %%", ms,
                    hist.cdf(ms) * 100.0));
  }
  r.add_anchor("share under 1 ms (%)", hist.cdf(1.0) * 100.0, "4.4 % [22]");
  r.add_anchor("share under 3 ms (%)", hist.cdf(3.0) * 100.0, "22.36 % [22]");

  const KlagenfurtStudy study;
  const radio::RadioLinkModel nsa{study.access_profile()};
  stats::Histogram nsa_hist{0.0, 120.0, 60};
  const auto cells = study.grid().all_cells();
  for (int i = 0; i < 100000; ++i) {
    const auto cell = cells[rng.uniform_int(cells.size())];
    nsa_hist.add(nsa.sample_downlink(study.rem().at(cell), rng).ms());
  }
  r.add_note("Mid-band NSA one-way (downlink, full stack) for contrast:");
  for (const double ms : {1.0, 3.0, 10.0, 20.0}) {
    r.add_note(strf("  P(latency < %4.1f ms) = %6.2f %%", ms,
                    nsa_hist.cdf(ms) * 100.0));
  }
  r.add_anchor("NSA downlink share under 3 ms (%)", nsa_hist.cdf(3.0) * 100.0,
               "application-visible access is slower than PHY");
  return r;
}

ScenarioResult latency_decomposition(const RunContext& ctx) {
  ScenarioResult r;
  const KlagenfurtStudy study;
  const auto& europe = study.europe();
  const auto& net = europe.net;
  const auto path = net.find_path(europe.mobile_ue, europe.university_probe);

  Duration propagation;
  Duration extra;
  Duration processing;
  for (std::size_t i = 0; i < path.links.size(); ++i) {
    const auto& link = net.link(path.links[i]);
    propagation += link.propagation();
    extra += link.extra_latency;
    if (i + 1 < path.links.size())
      processing += net.node(path.nodes[i + 1]).processing_delay;
  }

  Rng rng{ctx.seed_for(23)};
  stats::Summary queueing_ms;
  // Compiled once; the 4000-round loop draws per-hop queueing (forward
  // and reverse per link, in the original order) without link lookups.
  const topo::CompiledPath compiled = net.compile(path);
  for (int s = 0; s < 4000; ++s) {
    Duration q;
    for (std::size_t h = 0; h < compiled.hop_count(); ++h) {
      q += compiled.sample_hop_queueing(h, rng);
      q += compiled.sample_hop_queueing(h, rng);
    }
    queueing_ms.add(q.ms());
  }
  const radio::RadioLinkModel nsa{study.access_profile()};
  const auto c2 = study.rem().at(*study.grid().parse_label("C2"));
  const double radio_ms = nsa.expected_rtt(c2).ms();

  TextTable t{{"Component", "RTT share (ms)", "Removed by"}};
  t.set_align(0, TextTable::Align::kLeft);
  t.set_align(2, TextTable::Align::kLeft);
  t.add_row({"5G radio access (C2 conditions)", TextTable::num(radio_ms, 1),
             "V-B access evolution / 6G"});
  t.add_row({"detour propagation (2x2659 km fibre)",
             TextTable::num(2.0 * propagation.ms(), 1), "V-A local peering"});
  t.add_row({"carrier extras (CGNAT, access tails)",
             TextTable::num(2.0 * extra.ms(), 1),
             "V-B UPF integration (local breakout)"});
  t.add_row({"per-hop forwarding (10 hops)",
             TextTable::num(2.0 * processing.ms(), 1), "V-A fewer hops"});
  t.add_row({"public-Internet queueing (mean)",
             TextTable::num(queueing_ms.mean(), 1), "V-A shorter path"});
  const double total = radio_ms + 2.0 * propagation.ms() + 2.0 * extra.ms() +
                       2.0 * processing.ms() + queueing_ms.mean();
  t.add_row({"TOTAL (expected)", TextTable::num(total, 1), "-"});
  r.add_table(std::move(t));

  const meas::PingMeasurement ping{net, europe.mobile_ue,
                                   europe.university_probe, nsa, c2};
  Rng rng2{ctx.seed_for(29)};
  const auto sampled = ping.run(3000, rng2);
  r.add_anchor("decomposition total (ms)", total, "matches sampled mean");
  r.add_anchor("sampled end-to-end mean (ms)", sampled.summary_ms.mean(),
               "Fig. 2 C2-class cell");
  r.add_anchor("radio share of total (%)", radio_ms / total * 100.0,
               "access dominates after peering");
  return r;
}

// ------------------------------------------------- Section V ablations

ScenarioResult ablation_peering(const RunContext& ctx) {
  ScenarioResult r;
  const WhatIfEngine engine;
  const auto results = engine.local_peering();

  TextTable t{{"Metric", "Before", "After", "Unit", "Factor"}};
  t.set_align(0, TextTable::Align::kLeft);
  for (const auto& res : results) {
    t.add_row({res.metric, TextTable::num(res.before, 2),
               TextTable::num(res.after, 2), res.unit,
               TextTable::num(res.improvement_factor(), 2) + "x"});
  }
  r.add_table(std::move(t));

  topo::EuropeOptions fixed;
  fixed.local_breakout = true;
  fixed.local_peering = true;
  const auto peered = topo::build_europe(fixed);
  Rng rng{ctx.seed_for(17)};
  const auto trace = topo::traceroute(peered.net, peered.mobile_ue,
                                      peered.university_probe, rng);
  r.add_table(trace.table(), "Traceroute with local peering:");

  for (const auto& res : results) {
    if (res.metric == "UE->probe network hops")
      r.add_anchor("hops after peering", res.after, "vs 10 before (Table I)");
    if (res.metric == "routed distance")
      r.add_anchor("routed km after peering", res.after, "vs 2544 before");
    if (res.metric == "RTL: mobile status quo vs wired on peered fabric")
      r.add_anchor("wired RTL on peered fabric (ms)", res.after,
                   "1-11 ms [3]");
  }
  return r;
}

ScenarioResult ablation_upf(const RunContext& ctx) {
  ScenarioResult r;
  topo::EuropeOptions options;
  options.local_breakout = true;
  const auto europe = topo::build_europe(options);
  const core5g::UpfPlacementStudy study{europe};
  const auto rows = study.sweep();
  r.add_table(core5g::UpfPlacementStudy::table(rows));

  double baseline = 0.0;
  double edge_sa = 0.0;
  double metro_sa = 0.0;
  double edge_6g = 0.0;
  for (const auto& row : rows) {
    if (row.placement == core5g::UpfPlacement::kNone)
      baseline = row.mean_rtt_ms;
    if (row.placement == core5g::UpfPlacement::kEdge &&
        row.access_profile == "5G-SA-URLLC")
      edge_sa = row.mean_rtt_ms;
    if (row.placement == core5g::UpfPlacement::kMetro &&
        row.access_profile == "5G-SA-URLLC")
      metro_sa = row.mean_rtt_ms;
    if (row.placement == core5g::UpfPlacement::kEdge &&
        row.access_profile == "6G")
      edge_6g = row.mean_rtt_ms;
  }
  r.add_anchor("baseline (remote breakout, 5G-NSA) ms", baseline,
               "exceeding 62 ms");
  r.add_anchor("edge..metro UPF + capable 5G (ms)", edge_sa,
               "5-6.2 ms [30][31]");
  r.add_anchor("  (metro bound)", metro_sa, "5-6.2 ms [30][31]");
  r.add_anchor("reduction, edge+SA vs baseline (%)",
               (1.0 - edge_sa / baseline) * 100.0, "up to 90 %");
  r.add_anchor("edge UPF + 6G target (ms)", edge_6g,
               "below 1 ms (Sec. V-B)");

  Rng rng{ctx.seed_for(2024)};
  const auto flows = core5g::synthesize_flows(400, 0.15, 0.35, rng);
  core5g::DynamicUpfSelector selector;
  const auto assignments = selector.assign(flows);
  int critical_total = 0;
  int critical_edge = 0;
  for (const auto& a : assignments) {
    if (a.flow_class == core5g::FlowClass::kLatencyCritical) {
      ++critical_total;
      if (a.anchor == core5g::UpfPlacement::kEdge) ++critical_edge;
    }
  }
  r.add_note(strf("Dynamic UPF selection: %d of %d latency-critical flows at "
                  "the edge (capacity-limited), rest degrade to metro.",
                  critical_edge, critical_total));
  return r;
}

ScenarioResult ablation_cpf(const RunContext& ctx) {
  ScenarioResult r;
  {
    const core5g::SessionSetupModel model{core5g::ControlPlaneSites{}};
    Rng rng{ctx.seed_for(3)};
    stats::Summary conv_ms;
    stats::Summary edge_ms;
    std::uint32_t conv_msgs = 0;
    std::uint32_t edge_msgs = 0;
    for (int i = 0; i < 3000; ++i) {
      const auto c = model.conventional(rng);
      const auto e = model.converged_edge(rng);
      conv_ms.add(c.total.ms());
      edge_ms.add(e.total.ms());
      conv_msgs = c.messages;
      edge_msgs = e.messages;
    }
    TextTable t{{"Control plane", "Messages", "Mean setup (ms)", "Max (ms)"}};
    t.set_align(0, TextTable::Align::kLeft);
    t.add_row({"conventional 5G (AMF/SMF in core)",
               TextTable::integer(conv_msgs), TextTable::num(conv_ms.mean(), 2),
               TextTable::num(conv_ms.max(), 2)});
    t.add_row({"converged edge control plane [38]",
               TextTable::integer(edge_msgs), TextTable::num(edge_ms.mean(), 2),
               TextTable::num(edge_ms.max(), 2)});
    r.add_table(std::move(t), "PDU session establishment:");
    r.add_anchor("setup latency factor", conv_ms.mean() / edge_ms.mean(),
                 "consolidation gain (Sec. V-C)");
  }
  {
    oran::QosXApp::WorkloadParams params;
    params.seed = ctx.seed_for(0x90a5);
    const auto linear =
        oran::QosXApp::evaluate(core5g::RuleTable::Mode::kLinearScan, params);
    const auto context = oran::QosXApp::evaluate(
        core5g::RuleTable::Mode::kContextAware, params);
    r.add_table(oran::QosXApp::comparison(linear, context),
                strf("Context-aware PDR/QER handling (%u rules, %u active "
                     "flows, %u flows/UE):",
                     oran::QosXApp::kTotalRules, oran::QosXApp::kActiveFlows,
                     oran::QosXApp::kFlowsPerUe));
    r.add_anchor("lookup latency reduction",
                 linear.lookup_ns.mean() / context.lookup_ns.mean(),
                 "reduced lookup latency [32]");
    r.add_anchor("prioritised UEs simultaneously",
                 double(context.prioritised_ues),
                 "multiple flows per UE [32]");
  }
  {
    const oran::HandoverModel model;
    r.add_table(
        model.storm_table({50.0, 400.0, 1200.0}, 2000, ctx.seed_for(0xcafe)),
        "Handover interruption vs control-plane load:");
  }
  {
    const oran::NearRtRic ric;
    r.add_anchor("Near-RT RIC control loop mean (ms)",
                 ric.expected_control_loop().ms(), "10 ms - 1 s near-RT band");
  }
  return r;
}

ScenarioResult ablation_slicing(const RunContext& ctx) {
  ScenarioResult r;
  const auto& gaz = geo::Gazetteer::central_europe();
  std::vector<slicing::HypervisorSite> sites;
  std::uint32_t id = 0;
  for (const char* city : {"Vienna", "Graz", "Ljubljana"}) {
    sites.push_back(
        slicing::HypervisorSite{id++, city, gaz.find(city)->position, 8.0});
  }
  const slicing::HypervisorPlacer placer{sites};

  std::vector<slicing::SliceEndpoint> endpoints;
  std::uint32_t slice_id = 0;
  for (const char* home : {"Klagenfurt", "Zagreb", "Bratislava", "Munich"}) {
    for (const auto& spec :
         {slicing::SliceSpec::ar_gaming(slice_id + 1),
          slicing::SliceSpec::remote_surgery(slice_id + 2),
          slicing::SliceSpec::video_streaming(slice_id + 3)}) {
      endpoints.push_back(
          slicing::SliceEndpoint{spec, gaz.find(home)->position, 1.0});
    }
    slice_id += 10;
  }

  std::vector<slicing::PlacementOutcome> outcomes;
  for (const auto strategy : {slicing::PlacementStrategy::kLatencyAware,
                              slicing::PlacementStrategy::kResilienceAware,
                              slicing::PlacementStrategy::kLoadBalanced}) {
    outcomes.push_back(placer.place(endpoints, strategy));
  }
  r.add_table(slicing::HypervisorPlacer::comparison(outcomes),
              strf("Hypervisor placement (%zu slices, %zu candidate sites):",
                   endpoints.size(), sites.size()));
  r.add_anchor("latency-aware worst ctrl RTT (ms)",
               outcomes[0].worst_control_rtt_ms, "latency objective [41]");
  r.add_anchor("resilience failover coverage (%)",
               outcomes[1].failover_coverage * 100.0,
               "resilience objective [42]");

  slicing::ReconfigStudy::Params params;
  params.seed = ctx.seed_for(0x51ce);
  const auto reactive =
      slicing::ReconfigStudy::run(slicing::ReconfigPolicy::kReactive, params);
  const auto predictive = slicing::ReconfigStudy::run(
      slicing::ReconfigPolicy::kPredictive, params);
  r.add_table(slicing::ReconfigStudy::comparison({reactive, predictive}),
              "Reconfiguration policy over a 24 h diurnal day with random "
              "surges:");
  r.add_anchor("violation steps reactive", double(reactive.violations),
               "reactive operation (Sec. V-C)");
  r.add_anchor("violation steps predictive", double(predictive.violations),
               "predictive goal (Sec. V-C)");

  const auto admit_study = [&](bool peered) {
    topo::EuropeOptions options;
    options.local_breakout = peered;
    options.local_peering = peered;
    const auto world = topo::build_europe(options);
    slicing::SliceAdmission admission{world.net};
    int admitted = 0;
    const std::vector<slicing::SliceSpec> specs{
        slicing::SliceSpec::ar_gaming(1), slicing::SliceSpec::remote_surgery(2),
        slicing::SliceSpec::vehicle_coordination(3),
        slicing::SliceSpec::video_streaming(4),
        slicing::SliceSpec::sensor_swarm(5)};
    for (const auto& spec : specs) {
      if (admission.admit(spec, world.mobile_ue, world.university_probe))
        ++admitted;
    }
    return admitted;
  };
  const int without = admit_study(false);
  const int with_peering = admit_study(true);
  r.add_note("Slice admission UE->university (5 requested):");
  r.add_note(strf("  over the detour:        %d admitted (URLLC budgets fail "
                  "on the path floor)",
                  without));
  r.add_note(strf("  with local peering:     %d admitted", with_peering));
  r.add_anchor("URLLC admissible only with local path",
               double(with_peering - without),
               "slicing needs the V-A/V-B fixes");
  return r;
}

ScenarioResult ablation_energy(const RunContext&) {
  ScenarioResult r;
  r.add_table(radio::GnbEnergyModel::comparison_table());

  const auto a = radio::GnbEnergyModel::fiveg_macro();
  const auto b = radio::GnbEnergyModel::sixg_micro_sleep();

  r.add_note("Daily energy at 20 % mean load (diurnal 3:1 swing):");
  r.add_note(strf("  5G macro:          %.1f kWh", a.daily_kwh(0.20)));
  r.add_note(strf("  6G w/ micro-sleep: %.1f kWh", b.daily_kwh(0.20)));

  r.add_anchor("energy/bit gain at 15 % load",
               a.nj_per_bit(0.15) / b.nj_per_bit(0.15),
               "order-of-magnitude 6G target");
  r.add_anchor("daily kWh saving (%)",
               (1.0 - b.daily_kwh(0.20) / a.daily_kwh(0.20)) * 100.0,
               "sleep-mode benefit at low load");
  return r;
}

ScenarioResult upf_autoscale(const RunContext& ctx) {
  ScenarioResult r;
  core5g::UpfAutoscaleStudy::Params params;
  params.seed = ctx.seed_for(0x5ca1e);
  const auto statics =
      core5g::UpfAutoscaleStudy::run(core5g::ScalingPolicy::kStatic, params);
  const auto reactive =
      core5g::UpfAutoscaleStudy::run(core5g::ScalingPolicy::kReactive, params);
  const auto predictive = core5g::UpfAutoscaleStudy::run(
      core5g::ScalingPolicy::kPredictive, params);
  r.add_table(
      core5g::UpfAutoscaleStudy::comparison({statics, reactive, predictive}));

  r.add_anchor("static pool violations", double(statics.violation_steps),
               "sized-for-mean pools breach at peak");
  r.add_anchor("reactive violations", double(reactive.violation_steps),
               "boot delay bites on flash crowds");
  r.add_anchor("predictive violations", double(predictive.violation_steps),
               "pattern-aware scaling [29]");
  r.add_anchor("predictive vs static instance-hours",
               predictive.instance_hours / statics.instance_hours,
               "cost of elasticity");
  return r;
}

ScenarioResult smartnic_upf(const RunContext& ctx) {
  ScenarioResult r;
  struct DatapathRow {
    const char* name;
    core5g::UpfDatapath datapath;
  };
  const DatapathRow datapaths[] = {
      {"host CPU", core5g::UpfDatapath::kHostCpu},
      {"SmartNIC", core5g::UpfDatapath::kSmartNic},
  };

  TextTable t{{"Datapath", "Mean pkt latency (us)", "p50 (us)", "p99 (us)",
               "Throughput (Mpps)"}};
  t.set_align(0, TextTable::Align::kLeft);

  double host_mean = 0.0;
  double nic_mean = 0.0;
  double host_tput = 0.0;
  double nic_tput = 0.0;
  for (const auto& row : datapaths) {
    core5g::Upf upf{core5g::Upf::Config{.datapath = row.datapath}};
    (void)upf.rules().add_rule(core5g::PdrRule{1, 42, 1, 0});
    Rng rng{ctx.seed_for(99)};
    constexpr std::size_t kDraws = 100000;
    stats::Summary lat_us;
    stats::ReservoirQuantile q{kDraws};
    for (std::size_t i = 0; i < kDraws; ++i) {
      const double us = upf.sample_packet_latency(42, rng).us();
      lat_us.add(us);
      q.add(us);
    }
    t.add_row({row.name, TextTable::num(lat_us.mean(), 2),
               TextTable::num(q.quantile(0.5), 2),
               TextTable::num(q.quantile(0.99), 2),
               TextTable::num(upf.max_throughput_mpps(), 1)});
    if (row.datapath == core5g::UpfDatapath::kHostCpu) {
      host_mean = lat_us.mean();
      host_tput = upf.max_throughput_mpps();
    } else {
      nic_mean = lat_us.mean();
      nic_tput = upf.max_throughput_mpps();
    }
  }
  r.add_table(std::move(t));

  r.add_anchor("latency reduction factor", host_mean / nic_mean,
               "3.75x [33]");
  r.add_anchor("throughput factor", nic_tput / host_tput, "2x [32]");

  r.add_note("Linear-scan lookup cost vs table size (flow at the tail):");
  for (const std::size_t rules : {64u, 256u, 1024u, 4096u}) {
    core5g::RuleTable table{core5g::RuleTable::Mode::kLinearScan};
    for (std::size_t i = 0; i < rules; ++i)
      (void)table.add_rule(
          core5g::PdrRule{std::uint32_t(i), 1000 + i, 0, int(i)});
    const auto outcome = table.lookup(1000 + rules - 1);
    r.add_note(strf("  %5zu rules -> %7.2f us", rules, outcome.latency.us()));
  }
  return r;
}

// ---------------------------------------------------- application studies

ScenarioResult federated_edge(const RunContext& ctx) {
  ScenarioResult r;
  const KlagenfurtStudy study;
  const auto conditions = study.rem().at(*study.grid().parse_label("C2"));
  const radio::RadioLinkModel nsa{study.access_profile()};
  const radio::RadioLinkModel sixg_radio{radio::AccessProfile::sixg()};

  topo::EuropeOptions fixed;
  fixed.local_breakout = true;
  fixed.local_peering = true;
  const auto peered = topo::build_europe(fixed);
  const auto& detour_world = study.europe();

  const meas::PingMeasurement cloud_ping{detour_world.net,
                                         detour_world.mobile_ue,
                                         detour_world.university_probe, nsa,
                                         conditions};
  const meas::PingMeasurement edge_ping{peered.net, peered.mobile_ue,
                                        peered.university_probe, nsa,
                                        conditions};
  const meas::PingMeasurement sixg_ping{peered.net, peered.mobile_ue,
                                        peered.university_probe, sixg_radio,
                                        conditions};

  constexpr double kTransitLoss = 3e-4;  // shared public transit
  constexpr double kLocalLoss = 5e-5;    // clean local fabric

  const auto run_regime = [&](const meas::PingMeasurement& ping, double loss) {
    Rng probe_rng{ctx.seed_for(1)};
    stats::Summary rtt_ms;
    for (int i = 0; i < 400; ++i) rtt_ms.add(ping.sample_ms(probe_rng));
    apps::FederatedRoundModel::Config config;
    config.seed = ctx.seed_for(0xfeda);
    config.uplink_rate = apps::effective_uplink(
        config.uplink_rate, Duration::from_millis_f(rtt_ms.mean()), loss);
    const apps::FederatedRoundModel model{
        [&ping](Rng& rng) {
          return Duration::from_millis_f(ping.sample_ms(rng) / 2.0);
        },
        config};
    return model.run();
  };

  const std::vector<apps::FederatedScenario> scenarios{
      {"cloud aggregator, 5G + detour", run_regime(cloud_ping, kTransitLoss)},
      {"edge aggregator, 5G + peering", run_regime(edge_ping, kLocalLoss)},
      {"edge aggregator, 6G + peering", run_regime(sixg_ping, kLocalLoss)},
  };
  r.add_table(apps::federated_comparison(scenarios));

  const double cloud_s = scenarios[0].report.round_seconds.mean();
  const double edge_s = scenarios[1].report.round_seconds.mean();
  const double sixg_s = scenarios[2].report.round_seconds.mean();
  r.add_anchor("round speedup, edge vs cloud", cloud_s / edge_s,
               "edge aggregation wins (Sec. VI)");
  r.add_anchor("round speedup, 6G edge vs cloud", cloud_s / sixg_s,
               "6G compounds the gain");
  r.add_anchor("network share at cloud (%)",
               scenarios[0].report.network_share * 100.0,
               "network-bound FL on detoured 5G");
  return r;
}

ScenarioResult ar_game(const RunContext& ctx) {
  ScenarioResult r;
  const KlagenfurtStudy study;
  const auto conditions = study.rem().at(*study.grid().parse_label("C2"));

  topo::EuropeOptions fixed;
  fixed.local_breakout = true;
  fixed.local_peering = true;
  const auto status_quo = topo::build_europe();
  const auto peered = topo::build_europe(fixed);

  const auto play = [&](const topo::EuropeTopology& world,
                        const radio::AccessProfile& profile) {
    const radio::RadioLinkModel radio_model{profile};
    const meas::PingMeasurement ping{world.net, world.mobile_ue,
                                     world.university_probe, radio_model,
                                     conditions};
    apps::ArGameSession::Config config;
    config.frames = 18000;
    config.seed = ctx.seed_for(0xa59a);
    const apps::ArGameSession session{
        [&](Rng& rng) { return Duration::from_millis_f(ping.sample_ms(rng)); },
        config};
    return session.run();
  };

  struct Row {
    const char* regime;
    const topo::EuropeTopology* world;
    radio::AccessProfile profile;
  };
  const Row rows[] = {
      {"5G NSA, remote breakout (measured)", &status_quo,
       radio::AccessProfile::fiveg_nsa()},
      {"5G NSA + local peering (V-A)", &peered,
       radio::AccessProfile::fiveg_nsa()},
      {"5G SA URLLC + local peering (V-B)", &peered,
       radio::AccessProfile::fiveg_sa_urllc()},
      {"6G target + local peering", &peered, radio::AccessProfile::sixg()},
  };

  TextTable t{{"Regime", "Mean m2p (ms)", "Consistent frames",
               "Mis-registered throws", "Verdict"}};
  t.set_align(0, TextTable::Align::kLeft);
  double consistent_6g = 0.0;
  double consistent_nsa = 0.0;
  for (const Row& row : rows) {
    const auto report = play(*row.world, row.profile);
    t.add_row({row.regime, TextTable::num(report.event_m2p_ms.mean(), 1),
               TextTable::num(report.consistent_frame_share * 100.0, 1) + " %",
               TextTable::num(report.mis_registration_share * 100.0, 1) + " %",
               report.playable() ? "playable" : "not playable"});
    if (row.profile.name == "6G") consistent_6g = report.consistent_frame_share;
    if (row.world == &status_quo)
      consistent_nsa = report.consistent_frame_share;
  }
  r.add_table(std::move(t));

  r.add_anchor("consistent frames, measured 5G (%)", consistent_nsa * 100.0,
               "0 % (61 ms >> 20 ms budget)");
  r.add_anchor("consistent frames, 6G target (%)", consistent_6g * 100.0,
               "~100 % (enables the use case)");
  return r;
}

ScenarioResult atlas_design(const RunContext& ctx) {
  ScenarioResult r;
  const KlagenfurtStudy study;
  const auto& europe = study.europe();
  const radio::RadioLinkModel nsa{study.access_profile()};

  TextTable t{{"Cell", "n", "mean (ms)", "95% CI width (ms)"}};
  t.set_align(0, TextTable::Align::kLeft);
  for (const char* label : {"B3", "E5"}) {
    const auto conditions = study.rem().at(*study.grid().parse_label(label));
    const meas::PingMeasurement ping{europe.net, europe.mobile_ue,
                                     europe.university_probe, nsa, conditions};
    for (const std::uint32_t n : {10u, 30u, 100u, 300u, 1000u}) {
      Rng rng{ctx.seed_for(derive_seed(0xa75, n))};
      std::vector<double> sample(n);
      for (auto& x : sample) x = ping.sample_ms(rng);
      const auto ci =
          stats::bootstrap_mean_ci(sample, 0.95, 1500, ctx.seed_for(7));
      double mean = 0;
      for (double x : sample) mean += x;
      mean /= double(n);
      t.add_row({label, TextTable::integer(n), TextTable::num(mean, 1),
                 TextTable::num(ci.width(), 2)});
    }
  }
  r.add_table(std::move(t));

  meas::AtlasFleet fleet{europe.net};
  const auto probe = fleet.add_mobile_probe(
      "drive-probe", europe.mobile_ue, nsa,
      study.rem().at(*study.grid().parse_label("C2")));
  fleet.schedule_ping(probe, europe.university_probe);
  const auto results = fleet.run(Duration::seconds(3600), ctx.seed_for(99));
  r.add_note(strf("One hour at 15 s cadence: %llu scheduled, %llu lost, "
                  "mean %.1f ms (sd %.1f)",
                  static_cast<unsigned long long>(results[0].scheduled),
                  static_cast<unsigned long long>(results[0].lost),
                  results[0].rtt_ms.mean(), results[0].rtt_ms.stddev()));

  r.add_anchor("samples per cell-hour at 15 s", double(results[0].scheduled),
               "why <10-sample cells exist (short dwells)");
  r.add_anchor("suppression threshold", 10.0,
               "paper: cells with <10 measurements read 0.0");
  return r;
}

// ------------------------------------------------- edge AI inference

ScenarioResult edge_inference_latency(const RunContext& ctx) {
  ScenarioResult r;
  r.add_table(edgeai::ModelZoo::table(), "Model zoo (inference profiles):");

  const KlagenfurtStudy study;
  const auto conditions = study.rem().at(*study.grid().parse_label("C2"));
  topo::EuropeOptions fixed;
  fixed.local_breakout = true;
  fixed.local_peering = true;
  const auto peered = topo::build_europe(fixed);
  const auto& detour = study.europe();

  const radio::RadioLinkModel nsa{radio::AccessProfile::fiveg_nsa()};
  const radio::RadioLinkModel sa{radio::AccessProfile::fiveg_sa_urllc()};
  const radio::RadioLinkModel sixg_radio{radio::AccessProfile::sixg()};

  // Serving sites: the cloud GPU sits behind the Vienna anchor, the edge
  // GPU is co-located with the local site the paper measured — reachable
  // only through the detour until Section V's peering fix lands.
  const auto cloud_path =
      detour.net.find_path(detour.mobile_ue, detour.cloud_vienna);
  const auto edge_detour_path =
      detour.net.find_path(detour.mobile_ue, detour.university_probe);
  const auto edge_peered_path =
      peered.net.find_path(peered.mobile_ue, peered.university_probe);

  struct Regime {
    const char* name;
    const radio::RadioLinkModel* radio_model;
    const topo::EuropeTopology* world;
    const topo::Path* path;
    edgeai::AcceleratorProfile accelerator;
    DataRate uplink;    ///< access uplink budget (payload serialisation)
    DataRate downlink;
  };
  // Link budgets scale with the access generation — on NSA uplink the
  // 180 KB frame alone costs ~19 ms of airtime, which is as much a part
  // of the offload bill as the scheduling latency.
  const Regime regimes[] = {
      {"cloud GPU, 5G NSA + detour (status quo)", &nsa, &detour, &cloud_path,
       edgeai::AcceleratorProfile::cloud_gpu(), DataRate::mbps(75),
       DataRate::mbps(300)},
      {"edge GPU, 5G NSA, detoured path", &nsa, &detour, &edge_detour_path,
       edgeai::AcceleratorProfile::edge_gpu(), DataRate::mbps(75),
       DataRate::mbps(300)},
      {"edge GPU, 5G NSA + local peering (V-A)", &nsa, &peered,
       &edge_peered_path, edgeai::AcceleratorProfile::edge_gpu(),
       DataRate::mbps(75), DataRate::mbps(300)},
      {"edge GPU, 5G SA URLLC + peering (V-B)", &sa, &peered,
       &edge_peered_path, edgeai::AcceleratorProfile::edge_gpu(),
       DataRate::mbps(200), DataRate::mbps(800)},
      {"edge GPU, 6G target + peering", &sixg_radio, &peered,
       &edge_peered_path, edgeai::AcceleratorProfile::edge_gpu(),
       DataRate::gbps(2), DataRate::gbps(4)},
  };
  constexpr std::size_t kRegimes = std::size(regimes);

  const Campaign campaign{ctx, 0xed9e};
  const auto reports = campaign.sweep<edgeai::ServingStudy::Report>(
      kRegimes, [&](std::size_t i, std::uint64_t seed) {
        const Regime& regime = regimes[i];
        edgeai::ServingStudy::Config config;
        config.model = edgeai::ModelZoo::at("det-base");
        config.accelerator = regime.accelerator;
        config.batching.max_batch = 8;
        config.batching.batch_window = Duration::from_millis_f(2.0);
        config.arrivals_per_second = 300.0;  // five 60 FPS AR streams
        config.requests = 3000;
        config.energy.uplink = regime.uplink;
        config.energy.downlink = regime.downlink;
        config.uplink = edgeai::NetLeg::radio_then_path(
            *regime.radio_model, conditions,
            regime.world->net.compile(*regime.path));
        config.downlink = edgeai::NetLeg::path_then_radio(
            *regime.radio_model, conditions,
            regime.world->net.compile(*regime.path));
        config.seed = seed;
        return edgeai::ServingStudy::run(config);
      });

  const Duration budget = Duration::from_millis_f(20.0);
  TextTable t{{"Serving regime", "Mean e2e (ms)", "p99 (ms)", "<= 20 ms",
               "Net (ms)", "Queue (ms)", "Mean batch"}};
  t.set_align(0, TextTable::Align::kLeft);
  for (std::size_t i = 0; i < kRegimes; ++i) {
    const auto& rep = reports[i];
    t.add_row({regimes[i].name, TextTable::num(rep.e2e_ms.mean(), 1),
               TextTable::num(rep.e2e_q.quantile(0.99), 1),
               TextTable::num(rep.within(budget) * 100.0, 1) + " %",
               TextTable::num(rep.network_ms.mean(), 1),
               TextTable::num(rep.queue_ms.mean(), 2),
               TextTable::num(rep.batch_size.mean(), 1)});
  }
  r.add_table(std::move(t), "det-base serving, 300 req/s, batch<=8/2 ms:");

  // The inference-backed AR frame loop (Section IV-A meets Section VI):
  // the game's per-frame detection is served by the regime's
  // accelerator; its empirical serving latency rides the consistency
  // budget next to the player-to-player transport loop.
  const auto ar_with_inference = [&](const Regime& regime,
                                     const std::vector<double>& samples) {
    const meas::PingMeasurement ping{regime.world->net,
                                     regime.world->mobile_ue,
                                     regime.world->university_probe,
                                     *regime.radio_model, conditions};
    apps::ArGameSession::Config config;
    config.frames = 9000;
    config.seed = ctx.seed_for(0xa1f3);
    config.inference = [&samples](Rng& rng) {
      return Duration::from_millis_f(samples[rng.uniform_int(samples.size())]);
    };
    const apps::ArGameSession session{
        [&](Rng& rng) { return Duration::from_millis_f(ping.sample_ms(rng)); },
        config};
    return session.run();
  };
  const auto ar_cloud = ar_with_inference(regimes[0],
                                          reports[0].e2e_samples_ms);
  const auto ar_sixg = ar_with_inference(regimes[4],
                                         reports[4].e2e_samples_ms);
  r.add_note(strf("AR frame loop with inference overlay: detoured cloud "
                  "%.1f %% consistent, 6G edge %.1f %% consistent",
                  ar_cloud.consistent_frame_share * 100.0,
                  ar_sixg.consistent_frame_share * 100.0));

  r.add_anchor("cloud serving mean e2e (ms)", reports[0].e2e_ms.mean(),
               "the 65 ms RTL class (Table I)");
  r.add_anchor("6G edge serving p99 (ms)", reports[4].e2e_q.quantile(0.99),
               "within the 20 ms AR budget");
  r.add_anchor("6G edge within budget (%)", reports[4].within(budget) * 100.0,
               "~100 %");
  r.add_anchor("AR consistent frames, 6G edge + inference (%)",
               ar_sixg.consistent_frame_share * 100.0,
               "inference-backed AR playable only at the edge");
  return r;
}

ScenarioResult batching_ablation(const RunContext& ctx) {
  ScenarioResult r;
  struct Cell {
    std::uint32_t max_batch;
    double window_ms;
  };
  std::vector<Cell> cells;
  for (const double window_ms : {0.0, 1.0, 3.0}) {
    for (const std::uint32_t max_batch : {1u, 2u, 4u, 8u, 16u}) {
      cells.push_back({max_batch, window_ms});
    }
  }

  // Pure serving (no network hop) isolates the batching trade-off:
  // window and batch cap against latency, energy and throughput.
  const Campaign campaign{ctx, 0xba7c};
  const auto reports = campaign.sweep<edgeai::ServingStudy::Report>(
      cells.size(), [&](std::size_t i, std::uint64_t seed) {
        edgeai::ServingStudy::Config config;
        config.model = edgeai::ModelZoo::at("det-base");
        config.accelerator = edgeai::AcceleratorProfile::edge_gpu();
        config.batching.max_batch = cells[i].max_batch;
        config.batching.batch_window =
            Duration::from_millis_f(cells[i].window_ms);
        config.arrivals_per_second = 900.0;
        config.requests = 4000;
        config.seed = seed;
        return edgeai::ServingStudy::run(config);
      });

  TextTable t{{"Max batch", "Window (ms)", "Mean batch", "Mean (ms)",
               "p99 (ms)", "Throughput (/s)", "mJ/inference"}};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& rep = reports[i];
    t.add_row({TextTable::integer(cells[i].max_batch),
               TextTable::num(cells[i].window_ms, 1),
               TextTable::num(rep.batch_size.mean(), 2),
               TextTable::num(rep.e2e_ms.mean(), 2),
               TextTable::num(rep.e2e_q.quantile(0.99), 2),
               TextTable::num(rep.throughput_per_s, 0),
               TextTable::num(rep.mean_energy.total() * 1e3, 2)});
  }
  r.add_table(std::move(t),
              "Dynamic batching on the edge GPU, det-base at 900 req/s:");

  const auto find = [&](std::uint32_t max_batch, double window_ms) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].max_batch == max_batch && cells[i].window_ms == window_ms)
        return &reports[i];
    }
    SIXG_ASSERT(false, "anchor cell missing from the batching sweep grid");
    return static_cast<const edgeai::ServingStudy::Report*>(nullptr);
  };
  const auto* no_batching = find(1, 0.0);
  const auto* batched = find(16, 3.0);
  r.add_anchor("energy/inference gain, batch 16/3 ms vs none",
               no_batching->mean_energy.total() / batched->mean_energy.total(),
               "batching amortises weights + dispatch");
  r.add_anchor("achieved mean batch at cap 16, 3 ms window",
               batched->batch_size.mean(), "window-limited, not cap-limited");
  r.add_anchor("p99 cost of the 3 ms window vs none at cap 16 (ms)",
               batched->e2e_q.quantile(0.99) -
                   find(16, 0.0)->e2e_q.quantile(0.99),
               "latency paid for efficiency");
  return r;
}

ScenarioResult offload_policy(const RunContext& ctx) {
  ScenarioResult r;
  const KlagenfurtStudy study;
  // Offload is studied on the Section V-B access stack (SA URLLC): under
  // the measured NSA the access alone exceeds the budget, so every
  // policy degenerates to "stay on device".
  const radio::RadioLinkModel access{radio::AccessProfile::fiveg_sa_urllc()};

  // Edge<->cloud leg from the topo layer: the peered world's wired path
  // between the local edge site and the Vienna cloud.
  topo::EuropeOptions fixed;
  fixed.local_breakout = true;
  fixed.local_peering = true;
  const auto peered = topo::build_europe(fixed);
  const auto edge_cloud =
      peered.net.find_path(peered.university_probe, peered.cloud_vienna);

  edgeai::OffloadPlanner::Config planner_config;
  planner_config.edge_cloud_rtt = edge_cloud.base_one_way * 2;
  planner_config.uplink = DataRate::mbps(200);
  planner_config.downlink = DataRate::mbps(800);
  const edgeai::OffloadPlanner planner{planner_config};

  // A request mix spanning the zoo's tiers; caption-large does not fit
  // the device NPU, so offload is its only option.
  const std::vector<const edgeai::ModelProfile*> mix = {
      &edgeai::ModelZoo::at("det-lite"), &edgeai::ModelZoo::at("det-base"),
      &edgeai::ModelZoo::at("seg-large"),
      &edgeai::ModelZoo::at("caption-large")};

  const edgeai::OffloadPolicy policies[] = {
      edgeai::OffloadPolicy::kStaticDevice, edgeai::OffloadPolicy::kStaticEdge,
      edgeai::OffloadPolicy::kStaticCloud,
      edgeai::OffloadPolicy::kLatencyGreedy,
      edgeai::OffloadPolicy::kEnergyAware};
  const char* cell_labels[] = {"C1", "C3"};

  struct Outcome {
    double mean_ms = 0.0;
    double within = 0.0;
    double device_mj = 0.0;
    double share[3] = {0.0, 0.0, 0.0};
    double infeasible = 0.0;
  };

  TextTable t{{"Policy", "Cell", "Device/Edge/Cloud (%)", "Mean (ms)",
               "<= 20 ms", "Battery (mJ/req)"}};
  t.set_align(0, TextTable::Align::kLeft);
  t.set_align(2, TextTable::Align::kLeft);

  constexpr int kRequests = 4000;
  const Duration budget = planner_config.latency_budget;
  Outcome greedy_c1;
  Outcome energy_c1;
  Outcome cloud_c3;
  Outcome greedy_c3;
  for (const auto policy : policies) {
    for (const char* cell : cell_labels) {
      const auto conditions = study.rem().at(*study.grid().parse_label(cell));
      // Paired design: the seed depends on the cell only, so every
      // policy judges the *same* 4000 radio/queue draws — the policy
      // columns differ by decision, not by Monte-Carlo noise.
      Rng rng{ctx.seed_for(derive_seed(0x0ff1, std::uint64_t(cell[1] - '0')))};
      Outcome o;
      for (int i = 0; i < kRequests; ++i) {
        const auto& model = *mix[std::size_t(i) % mix.size()];
        const Duration radio_rtt = access.sample_rtt(conditions, rng);
        // Shared-tier congestion varies per request around its mean.
        const Duration edge_queue =
            Duration::from_millis_f(1.2 * (0.5 + rng.uniform()));
        const Duration cloud_queue =
            Duration::from_millis_f(4.0 * (0.5 + rng.uniform()));
        const auto pick =
            planner.choose(policy, model, radio_rtt, edge_queue, cloud_queue);
        if (!pick.feasible) {
          // A static policy aimed at a tier the model cannot run on: the
          // request fails; count it as a budget miss with no energy.
          o.infeasible += 1.0;
          continue;
        }
        o.mean_ms += pick.total.ms();
        if (pick.total <= budget) o.within += 1.0;
        o.device_mj += pick.device_joules * 1e3;
        o.share[std::size_t(pick.tier)] += 1.0;
      }
      const double served = double(kRequests) - o.infeasible;
      if (served > 0) {
        o.mean_ms /= served;
        o.device_mj /= served;
      }
      o.within /= double(kRequests);
      for (double& s : o.share) s = s / double(kRequests) * 100.0;

      t.add_row({to_string(policy), cell,
                 strf("%4.0f / %4.0f / %4.0f", o.share[0], o.share[1],
                      o.share[2]),
                 TextTable::num(o.mean_ms, 1),
                 TextTable::num(o.within * 100.0, 1) + " %",
                 TextTable::num(o.device_mj, 1)});

      if (policy == edgeai::OffloadPolicy::kLatencyGreedy) {
        (cell[0] == 'C' && cell[1] == '1' ? greedy_c1 : greedy_c3) = o;
      }
      if (policy == edgeai::OffloadPolicy::kEnergyAware &&
          cell[1] == '1') {
        energy_c1 = o;
      }
      if (policy == edgeai::OffloadPolicy::kStaticCloud && cell[1] == '3') {
        cloud_c3 = o;
      }
    }
  }
  r.add_table(std::move(t),
              "Offload policy x radio cell (det-lite/det-base/seg-large/"
              "caption-large mix, 5G SA URLLC access):");

  r.add_anchor("latency-greedy edge share, best cell (%)", greedy_c1.share[1],
               "edge is the latency-optimal tier");
  r.add_anchor("energy-aware battery saving vs greedy, C1 (%)",
               (1.0 - energy_c1.device_mj / greedy_c1.device_mj) * 100.0,
               "Merluzzi et al.: energy-aware edge inferencing");
  r.add_anchor("static-cloud within budget, worst cell (%)",
               cloud_c3.within * 100.0,
               "the status quo cannot hold the AR budget");
  r.add_anchor("latency-greedy within budget, worst cell (%)",
               greedy_c3.within * 100.0, "policy rescues the bad cell");
  return r;
}

ScenarioResult energy_inference(const RunContext& ctx) {
  ScenarioResult r;
  const KlagenfurtStudy study;
  const auto conditions = study.rem().at(*study.grid().parse_label("C2"));

  topo::EuropeOptions fixed;
  fixed.local_breakout = true;
  fixed.local_peering = true;
  const auto peered = topo::build_europe(fixed);
  const auto edge_cloud =
      peered.net.find_path(peered.university_probe, peered.cloud_vienna);

  // Sampled mean access RTT per generation (so the scenario is seeded
  // like every other Monte-Carlo study, not a closed form).
  const auto mean_radio_rtt = [&](const radio::AccessProfile& profile,
                                  std::uint64_t salt) {
    const radio::RadioLinkModel model{profile};
    Rng rng{ctx.seed_for(salt)};
    stats::Summary ms;
    for (int i = 0; i < 4000; ++i)
      ms.add(model.sample_rtt(conditions, rng).ms());
    return Duration::from_millis_f(ms.mean());
  };
  const Duration nsa_rtt =
      mean_radio_rtt(radio::AccessProfile::fiveg_nsa(), 0xe9e1);
  const Duration sixg_rtt = mean_radio_rtt(radio::AccessProfile::sixg(),
                                           0xe9e2);

  // Each access generation brings its own link budget: the airtime of
  // the request payload is part of the energy bill.
  edgeai::OffloadPlanner::Config nsa_config;
  nsa_config.edge_cloud_rtt = edge_cloud.base_one_way * 2;
  nsa_config.uplink = DataRate::mbps(75);
  nsa_config.downlink = DataRate::mbps(300);
  edgeai::OffloadPlanner::Config sixg_config = nsa_config;
  sixg_config.uplink = DataRate::gbps(2);
  sixg_config.downlink = DataRate::gbps(4);
  const edgeai::OffloadPlanner nsa_planner{nsa_config};
  const edgeai::OffloadPlanner sixg_planner{sixg_config};
  const Duration edge_queue = Duration::from_millis_f(1.2);
  const Duration cloud_queue = Duration::from_millis_f(4.0);

  const auto tier_table = [&](const edgeai::OffloadPlanner& planner,
                              Duration radio_rtt) {
    TextTable t{{"Model", "Local (mJ)", "Edge dev (mJ)", "Edge total (mJ)",
                 "Cloud dev (mJ)", "Best battery tier"}};
    t.set_align(0, TextTable::Align::kLeft);
    t.set_align(5, TextTable::Align::kLeft);
    const edgeai::InferenceEnergyModel energy{
        {planner.config().uplink, planner.config().downlink}};
    const auto edge_gpu = edgeai::AcceleratorProfile::edge_gpu();
    for (const auto& model : edgeai::ModelZoo::profiles()) {
      const auto device = planner.estimate(edgeai::ExecutionTier::kDevice,
                                           model, radio_rtt, edge_queue,
                                           cloud_queue);
      const auto edge = planner.estimate(edgeai::ExecutionTier::kEdge, model,
                                         radio_rtt, edge_queue, cloud_queue);
      const auto cloud = planner.estimate(edgeai::ExecutionTier::kCloud, model,
                                          radio_rtt, edge_queue, cloud_queue);
      // The genuinely battery-minimal feasible tier — not the
      // kEnergyAware policy pick, which degrades to the fastest tier
      // when nothing meets the latency budget.
      const edgeai::TierEstimate* frugal = nullptr;
      for (const auto* e : {&device, &edge, &cloud}) {
        if (!e->feasible) continue;
        if (frugal == nullptr || e->device_joules < frugal->device_joules)
          frugal = e;
      }
      SIXG_ASSERT(frugal != nullptr, "no feasible execution tier");
      const auto edge_full = energy.offloaded(
          model, edge_gpu, edge.total, edgeai::OffloadPlanner::kEdgeBatch);
      t.add_row({model.name,
                 device.feasible ? TextTable::num(device.device_joules * 1e3, 2)
                                 : std::string("does not fit"),
                 TextTable::num(edge.device_joules * 1e3, 2),
                 TextTable::num(edge_full.total() * 1e3, 2),
                 TextTable::num(cloud.device_joules * 1e3, 2),
                 to_string(frugal->tier)});
    }
    return t;
  };

  r.add_table(tier_table(nsa_planner, nsa_rtt),
              strf("Per-request energy, 5G NSA access (mean radio RTT "
                   "%.1f ms):",
                   nsa_rtt.ms()));
  r.add_table(tier_table(sixg_planner, sixg_rtt),
              strf("Per-request energy, 6G access (mean radio RTT %.2f ms):",
                   sixg_rtt.ms()));

  const auto& seg = edgeai::ModelZoo::at("seg-large");
  const auto& kws = edgeai::ModelZoo::at("kws-lite");
  const auto seg_local = sixg_planner.estimate(
      edgeai::ExecutionTier::kDevice, seg, sixg_rtt, edge_queue, cloud_queue);
  const auto seg_edge = sixg_planner.estimate(
      edgeai::ExecutionTier::kEdge, seg, sixg_rtt, edge_queue, cloud_queue);
  const auto kws_local = nsa_planner.estimate(
      edgeai::ExecutionTier::kDevice, kws, nsa_rtt, edge_queue, cloud_queue);
  const auto kws_edge = nsa_planner.estimate(
      edgeai::ExecutionTier::kEdge, kws, nsa_rtt, edge_queue, cloud_queue);
  const auto kws_local_6g = sixg_planner.estimate(
      edgeai::ExecutionTier::kDevice, kws, sixg_rtt, edge_queue, cloud_queue);
  const auto kws_edge_6g = sixg_planner.estimate(
      edgeai::ExecutionTier::kEdge, kws, sixg_rtt, edge_queue, cloud_queue);
  const auto det_edge_nsa = nsa_planner.estimate(
      edgeai::ExecutionTier::kEdge, edgeai::ModelZoo::at("det-base"), nsa_rtt,
      edge_queue, cloud_queue);
  const auto det_edge_6g = sixg_planner.estimate(
      edgeai::ExecutionTier::kEdge, edgeai::ModelZoo::at("det-base"), sixg_rtt,
      edge_queue, cloud_queue);

  r.add_anchor("seg-large battery gain, offload vs local (6G)",
               seg_local.device_joules / seg_edge.device_joules,
               "offloading heavy models saves battery");
  r.add_anchor("kws-lite battery gain, local vs offload (5G NSA)",
               kws_edge.device_joules / kws_local.device_joules,
               "tiny models stay on device on measured 5G");
  r.add_anchor("kws-lite offload/local battery ratio (6G)",
               kws_edge_6g.device_joules / kws_local_6g.device_joules,
               "6G flips even lite models to the edge");
  r.add_anchor("det-base edge battery, NSA vs 6G access",
               det_edge_nsa.device_joules / det_edge_6g.device_joules,
               "shorter waits shrink idle energy (Sec. VI)");
  return r;
}

// ---------------------------------------------- fleet-scale serving

/// The city every fleet scenario serves: the C2 cell of the Klagenfurt
/// drive-test grid, the peered Europe (local breakout and peering), a 6G
/// access link and the metro path from the UE to the edge site. Pinned
/// in place, because the NetLegs that config() builds borrow `access`.
struct EdgeCity {
  EdgeCity() = default;
  EdgeCity(const EdgeCity&) = delete;
  EdgeCity& operator=(const EdgeCity&) = delete;

  /// The city pod: N identical edge GPUs behind the metro path serving
  /// det-base, JSQ dispatch, 20 ms SLO, 2/4 Gb/s radio. Each server
  /// carries its own compiled-path samplers, so the fleet engine draws
  /// with zero topology lookups.
  [[nodiscard]] edgeai::FleetStudy::Config config(
      std::size_t edge_gpus) const {
    edgeai::FleetStudy::Config config;
    config.model = edgeai::ModelZoo::at("det-base");
    config.policy = edgeai::DispatchPolicy::kJoinShortestQueue;
    config.slo = Duration::from_millis_f(20.0);
    config.energy.uplink = DataRate::gbps(2);
    config.energy.downlink = DataRate::gbps(4);
    for (std::size_t s = 0; s < edge_gpus; ++s) {
      edgeai::FleetStudy::ServerSpec spec;
      spec.accelerator = edgeai::AcceleratorProfile::edge_gpu();
      spec.batching.max_batch = 16;
      spec.batching.batch_window = Duration::from_millis_f(1.0);
      spec.batching.queue_capacity = 256;
      spec.tier = edgeai::ExecutionTier::kEdge;
      spec.uplink = edgeai::NetLeg::radio_then_path(
          access, conditions, world.net.compile(edge_path));
      spec.downlink = edgeai::NetLeg::path_then_radio(
          access, conditions, world.net.compile(edge_path));
      config.servers.push_back(std::move(spec));
    }
    return config;
  }

  const radio::CellConditions conditions = [] {
    const KlagenfurtStudy study;
    return study.rem().at(*study.grid().parse_label("C2"));
  }();
  const topo::EuropeTopology world = [] {
    topo::EuropeOptions fixed;
    fixed.local_breakout = true;
    fixed.local_peering = true;
    return topo::build_europe(fixed);
  }();
  const radio::RadioLinkModel access{radio::AccessProfile::sixg()};
  const topo::Path edge_path =
      world.net.find_path(world.mobile_ue, world.university_probe);
};

ScenarioResult city_serving(const RunContext& ctx) {
  ScenarioResult r;
  const EdgeCity city;

  // A fixed city: 12k inference requests/s of det-base (two hundred 60 FPS
  // AR streams) against a growing pool of edge GPUs. One edge GPU
  // sustains ~4.7k req/s at batch 16, so the fleet crosses from
  // overload (2) through tight (3) to headroom (4, 6).
  constexpr double kCityLoad = 12000.0;
  constexpr std::uint32_t kRequestsPerPoint = 300000;  // 1.2M over the sweep
  const std::size_t fleet_sizes[] = {2, 3, 4, 6};

  const Campaign campaign{ctx, 0xc17e};
  const auto reports = campaign.sweep<edgeai::FleetStudy::Report>(
      std::size(fleet_sizes), [&](std::size_t i, std::uint64_t seed) {
        auto config = city.config(fleet_sizes[i]);
        config.arrivals_per_second = kCityLoad;
        config.requests = kRequestsPerPoint;
        config.seed = seed;
        return edgeai::FleetStudy::run(config);
      });

  TextTable t{{"Edge GPUs", "<= 20 ms SLO", "Mean (ms)", "p99 (ms)",
               "Dropped", "Mean batch", "Throughput (/s)"}};
  for (std::size_t i = 0; i < std::size(fleet_sizes); ++i) {
    const auto& rep = reports[i];
    t.add_row({TextTable::integer(std::int64_t(fleet_sizes[i])),
               TextTable::num(rep.slo_attainment() * 100.0, 1) + " %",
               TextTable::num(rep.e2e_ms.mean(), 2),
               TextTable::num(rep.e2e_q.quantile(0.99), 2),
               TextTable::integer(std::int64_t(rep.dropped)),
               TextTable::num(rep.batch_size.mean(), 1),
               TextTable::num(rep.throughput_per_s, 0)});
  }
  r.add_table(std::move(t),
              strf("det-base city load, %.0fk req/s over a 6G edge fleet "
                   "(%u00k requests per point, join-shortest-queue):",
                   kCityLoad / 1000.0, kRequestsPerPoint / 100000));

  // Streaming-report rendering: one reused buffer, no per-row strings.
  std::string buf;
  for (std::size_t i = 0; i < std::size(fleet_sizes); ++i) {
    buf.clear();
    buf += strf("  e2e @%zu GPUs: ", fleet_sizes[i]);
    reports[i].e2e_ms.to(buf);
    r.add_note(buf);
  }

  double smallest_ok = 0.0;  // 0 = no swept fleet size met the SLO
  for (std::size_t i = std::size(fleet_sizes); i-- > 0;) {
    if (reports[i].slo_attainment() >= 0.99)
      smallest_ok = double(fleet_sizes[i]);
  }
  r.add_anchor("SLO attainment at 2 edge GPUs (%)",
               reports[0].slo_attainment() * 100.0,
               "under-provisioned: the fleet, not the radio, misses");
  r.add_anchor("smallest fleet with >= 99 % in SLO (GPUs)", smallest_ok,
               "provisioning knee (0 = none in the sweep)");
  r.add_anchor("p99 at 6 edge GPUs (ms)", reports[3].e2e_q.quantile(0.99),
               "headroom keeps the tail inside the AR budget");
  r.add_anchor("dropped at 2 GPUs", double(reports[0].dropped),
               "bounded queues shed the overload");
  return r;
}

ScenarioResult fleet_dispatch_ablation(const RunContext& ctx) {
  ScenarioResult r;
  const EdgeCity city;
  // The cloud backstop still sits behind the Vienna WAN leg: large
  // batches and effectively no queueing, but the path alone spends most
  // of the 20 ms budget.
  const auto cloud_path = city.world.net.find_path(city.world.mobile_ue,
                                                   city.world.cloud_vienna);

  constexpr double kCityLoad = 12000.0;
  constexpr std::uint32_t kRequestsPerCell = 150000;

  const edgeai::DispatchPolicy policies[] = {
      edgeai::DispatchPolicy::kRoundRobin,
      edgeai::DispatchPolicy::kJoinShortestQueue,
      edgeai::DispatchPolicy::kTierAffine};
  const std::size_t edge_counts[] = {2, 3, 4};
  struct Cell {
    edgeai::DispatchPolicy policy;
    std::size_t edges;
  };
  std::vector<Cell> cells;
  for (const auto policy : policies)
    for (const std::size_t edges : edge_counts) cells.push_back({policy, edges});

  const Campaign campaign{ctx, 0xf1d5};
  const auto reports = campaign.sweep<edgeai::FleetStudy::Report>(
      cells.size(), [&](std::size_t i, std::uint64_t seed) {
        auto config = city.config(cells[i].edges);
        config.policy = cells[i].policy;
        config.arrivals_per_second = kCityLoad;
        config.requests = kRequestsPerCell;
        config.seed = seed;
        edgeai::FleetStudy::ServerSpec cloud;
        cloud.name = "cloud";
        cloud.accelerator = edgeai::AcceleratorProfile::cloud_gpu();
        cloud.batching.max_batch = 32;
        cloud.batching.batch_window = Duration::from_millis_f(2.0);
        cloud.batching.queue_capacity = 512;
        cloud.tier = edgeai::ExecutionTier::kCloud;
        cloud.uplink = edgeai::NetLeg::radio_then_path(
            city.access, city.conditions, city.world.net.compile(cloud_path));
        cloud.downlink = edgeai::NetLeg::path_then_radio(
            city.access, city.conditions, city.world.net.compile(cloud_path));
        config.servers.push_back(std::move(cloud));
        return edgeai::FleetStudy::run(config);
      });

  const auto cloud_share = [](const edgeai::FleetStudy::Report& rep) {
    std::uint64_t cloud = 0;
    std::uint64_t total = 0;
    for (const auto& s : rep.servers) {
      total += s.dispatched;
      if (s.tier == edgeai::ExecutionTier::kCloud) cloud += s.dispatched;
    }
    return total == 0 ? 0.0 : double(cloud) / double(total);
  };

  TextTable t{{"Policy", "Edge GPUs", "Cloud share", "<= 20 ms SLO",
               "Mean (ms)", "p99 (ms)", "Dropped"}};
  t.set_align(0, TextTable::Align::kLeft);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& rep = reports[i];
    t.add_row({to_string(cells[i].policy),
               TextTable::integer(std::int64_t(cells[i].edges)),
               TextTable::num(cloud_share(rep) * 100.0, 1) + " %",
               TextTable::num(rep.slo_attainment() * 100.0, 1) + " %",
               TextTable::num(rep.e2e_ms.mean(), 2),
               TextTable::num(rep.e2e_q.quantile(0.99), 2),
               TextTable::integer(std::int64_t(rep.dropped))});
  }
  r.add_table(std::move(t),
              strf("Dispatch policy x edge fleet size, %.0fk req/s det-base, "
                   "N edge GPUs + 1 cloud backstop:",
                   kCityLoad / 1000.0));

  const auto find = [&](edgeai::DispatchPolicy policy, std::size_t edges) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].policy == policy && cells[i].edges == edges)
        return &reports[i];
    }
    SIXG_ASSERT(false, "anchor cell missing from the dispatch grid");
    return static_cast<const edgeai::FleetStudy::Report*>(nullptr);
  };
  const auto* rr4 = find(edgeai::DispatchPolicy::kRoundRobin, 4);
  const auto* jsq4 = find(edgeai::DispatchPolicy::kJoinShortestQueue, 4);
  const auto* affine4 = find(edgeai::DispatchPolicy::kTierAffine, 4);
  r.add_anchor("tier-affine SLO gain over round-robin, 4 edges (pp)",
               (affine4->slo_attainment() - rr4->slo_attainment()) * 100.0,
               "once the edge is provisioned, tier awareness wins");
  r.add_anchor("tier-affine cloud share at 4 edges (%)",
               cloud_share(*affine4) * 100.0,
               "a provisioned edge keeps traffic off the WAN");
  r.add_anchor("JSQ cloud share at 4 edges (%)", cloud_share(*jsq4) * 100.0,
               "load-only dispatch still leaks to the cloud");
  r.add_anchor("tier-affine p99 at 4 edges (ms)",
               affine4->e2e_q.quantile(0.99), "inside the AR budget");
  return r;
}

ScenarioResult city_serving_sharded(const RunContext& ctx) {
  ScenarioResult r;
  const EdgeCity city;
  // The inter-pod backbone: the Klagenfurt -> Vienna transit chain. Its
  // deterministic latency floor is the sharded kernel's lookahead — the
  // conservative window is exactly CompiledPath::min_latency, so every
  // cross-pod message physically cannot arrive before the next barrier.
  const auto interpod = city.world.net.compile(city.world.net.find_path(
      city.world.university_probe, city.world.cloud_vienna));
  SIXG_ASSERT(interpod.valid(), "inter-pod backbone path must route");
  const Duration window = interpod.min_latency();

  // Each pod is the "tight" point of city-serving: 12k req/s of det-base
  // against 3 edge GPUs. Pods add load AND capacity, so the sweep scales
  // the city, not the headroom; 10 % of arrivals are served by a remote
  // pod across the backbone.
  constexpr double kPodLoad = 12000.0;
  constexpr std::uint32_t kRequestsPerPod = 250000;
  constexpr double kRemoteFraction = 0.10;
  const std::uint64_t base_seed = derive_seed(ctx.seed, 0x5a4d);

  const auto sharded_config = [&](std::uint32_t pods, unsigned workers,
                                  std::uint32_t requests_per_pod) {
    edgeai::ShardedFleetStudy::Config config;
    config.shard = city.config(3);
    config.shard.arrivals_per_second = kPodLoad;
    config.shard.requests = requests_per_pod;
    config.shard.seed = base_seed;
    config.shards = pods;
    config.workers = workers;
    config.window = window;
    config.remote_fraction = kRemoteFraction;
    config.remote_uplink = edgeai::NetLeg::wired(interpod);
    config.remote_downlink = edgeai::NetLeg::wired(interpod);
    return config;
  };

  // The three pod rows, then the determinism contract demonstrated
  // in-run: the same 2-pod config at 1 and at 4 worker threads. The five
  // studies run as one batch; at --threads 1 in exactly this order.
  const std::uint32_t pod_counts[] = {1, 2, 4};
  std::vector<edgeai::ShardedFleetStudy::Config> configs;
  for (const std::uint32_t pods : pod_counts) {
    configs.push_back(sharded_config(pods, ctx.threads, kRequestsPerPod));
  }
  configs.push_back(sharded_config(2, 1, 100000));
  configs.push_back(sharded_config(2, 4, 100000));
  const auto reports = ctx.runner().map<edgeai::ShardedFleetStudy::Report>(
      configs.size(), [&](std::size_t i) {
        return edgeai::ShardedFleetStudy::run(configs[i]);
      });

  TextTable t{{"Pods", "Offered (/s)", "<= 20 ms SLO", "Mean (ms)",
               "p99 (ms)", "Remote", "Windows", "Throughput (/s)"}};
  for (std::size_t i = 0; i < std::size(pod_counts); ++i) {
    const auto& rep = reports[i];
    t.add_row({TextTable::integer(std::int64_t(pod_counts[i])),
               TextTable::num(kPodLoad * pod_counts[i], 0),
               TextTable::num(rep.slo_attainment() * 100.0, 1) + " %",
               TextTable::num(rep.e2e_ms.mean(), 2),
               TextTable::num(rep.e2e_q.quantile(0.99), 2),
               TextTable::integer(std::int64_t(rep.remote_requests)),
               TextTable::integer(std::int64_t(rep.windows)),
               TextTable::num(rep.throughput_per_s, 0)});
  }
  r.add_table(
      std::move(t),
      strf("Sharded city serving: N pods x %.0fk req/s det-base, 3 edge "
           "GPUs/pod, %.0f %% remote via the backbone (window %.2f ms):",
           kPodLoad / 1000.0, kRemoteFraction * 100.0, window.ms()));

  const bool invariant = edgeai::fleet_report_digest(reports[3]) ==
                         edgeai::fleet_report_digest(reports[4]);
  r.add_anchor("worker-count invariance (digest match, 1 vs 4 workers)",
               invariant ? 1.0 : 0.0,
               "fixed shard count => byte-identical at any worker count");
  r.add_anchor("conservative window (ms)", window.ms(),
               "backbone latency floor = the kernel's lookahead");
  r.add_anchor("SLO attainment at 4 pods (%)",
               reports[2].slo_attainment() * 100.0,
               "sharding scales the city without losing the SLO story");
  r.add_anchor("remote share at 4 pods (%)",
               100.0 * double(reports[2].remote_requests) /
                   double(reports[2].completed + reports[2].dropped),
               "cross-pod traffic actually exercises the mailboxes");
  return r;
}

// ------------------------------------------- faults and resilience

ScenarioResult link_failure_sweep(const RunContext& ctx) {
  ScenarioResult r;
  topo::EuropeOptions fixed;
  fixed.local_breakout = true;
  fixed.local_peering = true;
  auto world = topo::build_europe(fixed);  // mutable: links fail and heal
  const auto src = world.mobile_ue;
  const auto dst = world.university_probe;
  const auto primary = world.net.find_path(src, dst);
  SIXG_ASSERT(primary.valid(), "primary metro path must route");

  // Seed-derived link fault schedule over the primary path's own links:
  // each fibre cut forces policy routing onto a detour until the repair
  // restores the same LinkId (and the next query reroutes back).
  faults::FaultConfig fc;
  fc.link_fail_rate_per_s = 0.12;
  fc.link_mttr = Duration::millis(400);
  fc.horizon = Duration::seconds(10);
  fc.links = std::uint32_t(primary.links.size());
  const auto plan = faults::FaultPlan::generate(fc, ctx.seed_for(0x11f));

  Rng rtt_rng{ctx.seed_for(0x11f0)};
  constexpr int kRttDraws = 256;
  const auto mean_rtt_ms = [&](const topo::Path& path) {
    double sum = 0.0;
    for (int i = 0; i < kRttDraws; ++i)
      sum += world.net.sample_rtt(path, rtt_rng).ms();
    return sum / kRttDraws;
  };

  TextTable t{{"t (s)", "Event", "Link", "Hops", "Floor (ms)", "RTT (ms)"}};
  t.set_align(1, TextTable::Align::kLeft);
  t.set_align(2, TextTable::Align::kLeft);
  // Labels snapshot now: link() asserts liveness, and rows must name
  // links that are currently cut.
  std::vector<std::string> labels;
  for (const auto id : primary.links) {
    const auto& l = world.net.link(id);
    labels.push_back(world.net.node(l.a).name + " - " +
                     world.net.node(l.b).name);
  }
  double worst_floor_ms = primary.base_one_way.ms();
  const auto add_row = [&](double at_s, const char* event,
                           std::uint32_t index) {
    const std::string& label = labels[index];
    const auto path = world.net.find_path(src, dst);
    if (!path.valid()) {
      t.add_row({TextTable::num(at_s, 3), event, label, "-", "-", "cut off"});
      return;
    }
    const auto compiled = world.net.compile(path);  // post-mutation recompile
    worst_floor_ms = std::max(worst_floor_ms, path.base_one_way.ms());
    t.add_row({TextTable::num(at_s, 3), event, label,
               TextTable::integer(std::int64_t(path.hop_count())),
               TextTable::num(compiled.min_latency().ms(), 3),
               TextTable::num(mean_rtt_ms(path), 3)});
  };

  // Execute the plan on an event kernel: the injector's hooks are the
  // only place the topology mutates, exactly as a fleet run would do it.
  netsim::Simulator sim;
  faults::FaultInjector injector;
  faults::FaultInjector::Hooks hooks;
  hooks.link_down = [&](std::uint32_t link, Duration) {
    world.net.remove_link(primary.links[link]);
    add_row(sim.now().sec(), "fail", link);
  };
  hooks.link_up = [&](std::uint32_t link) {
    world.net.restore_link(primary.links[link]);
    add_row(sim.now().sec(), "restore", link);
  };
  injector.arm(sim, plan, std::move(hooks));
  sim.run();
  r.add_table(std::move(t),
              strf("Fibre cuts on the %zu-hop metro path (rate %.2f /s per "
                   "link, MTTR %.0f ms): reroute on fail, recompile on "
                   "restore:",
                   primary.links.size(), fc.link_fail_rate_per_s,
                   fc.link_mttr.ms()));

  const auto healed = world.net.find_path(src, dst);
  const bool back_to_primary =
      healed.valid() && healed.links == primary.links &&
      healed.base_one_way.ns() == primary.base_one_way.ns();
  r.add_anchor("link fault events executed", double(injector.fired()),
               "every cut has a matching same-LinkId restore");
  r.add_anchor("primary path floor (ms)", primary.base_one_way.ms(),
               "the intact metro path");
  r.add_anchor("worst detour floor (ms)", worst_floor_ms,
               "policy routing around the cut costs latency, not loss");
  r.add_anchor("path identical after all repairs (1 = yes)",
               back_to_primary ? 1.0 : 0.0,
               "restore_link revives the same LinkId and drops the memo");
  return r;
}

ScenarioResult fleet_resilience_ablation(const RunContext& ctx) {
  ScenarioResult r;
  const EdgeCity city;

  constexpr double kCityLoad = 12000.0;
  constexpr std::uint32_t kRequestsPerCell = 100000;

  struct PolicyRow {
    const char* name;
    edgeai::ResilienceConfig res;
  };
  edgeai::ResilienceConfig retry;
  retry.max_retries = 3;
  retry.retry_backoff = Duration::micros(500);
  edgeai::ResilienceConfig hedge;
  hedge.hedge_delay = Duration::from_millis_f(15.0);
  edgeai::ResilienceConfig both = retry;
  both.hedge_delay = hedge.hedge_delay;
  const PolicyRow policies[] = {
      {"none", {}}, {"retry", retry}, {"hedge", hedge}, {"retry+hedge", both}};
  const double crash_rates[] = {0.0, 0.1, 0.4};  // per server, per second

  struct Cell {
    std::size_t policy;
    std::size_t rate;
  };
  std::vector<Cell> cells;
  for (std::size_t p = 0; p < std::size(policies); ++p)
    for (std::size_t c = 0; c < std::size(crash_rates); ++c)
      cells.push_back({p, c});

  const Campaign campaign{ctx, 0xfa4e};
  const auto reports = campaign.sweep<edgeai::FleetStudy::Report>(
      cells.size(), [&](std::size_t i, std::uint64_t seed) {
        auto config = city.config(4);
        config.arrivals_per_second = kCityLoad;
        config.requests = kRequestsPerCell;
        config.seed = seed;
        config.faults.server_crash_rate_per_s = crash_rates[cells[i].rate];
        config.faults.server_mttr = Duration::millis(150);
        config.resilience = policies[cells[i].policy].res;
        return edgeai::FleetStudy::run(config);
      });

  TextTable t{{"Policy", "Crash (/s)", "Avail", "<= 20 ms SLO",
               "Goodput (/s)", "Lost", "Retries", "Hedge wins"}};
  t.set_align(0, TextTable::Align::kLeft);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& rep = reports[i];
    t.add_row({policies[cells[i].policy].name,
               TextTable::num(crash_rates[cells[i].rate], 1),
               TextTable::num(rep.availability() * 100.0, 2) + " %",
               TextTable::num(rep.slo_attainment() * 100.0, 1) + " %",
               TextTable::num(rep.goodput_per_s, 0),
               TextTable::integer(std::int64_t(rep.lost_to_crashes)),
               TextTable::integer(std::int64_t(rep.retries)),
               TextTable::integer(std::int64_t(rep.hedge_wins))});
  }
  r.add_table(std::move(t),
              strf("Retry/hedge policy x crash rate, %.0fk req/s det-base "
                   "over 4 edge GPUs (MTTR 150 ms, %uk requests per cell):",
                   kCityLoad / 1000.0, kRequestsPerCell / 1000));

  const auto find = [&](std::size_t policy, std::size_t rate) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].policy == policy && cells[i].rate == rate)
        return &reports[i];
    }
    SIXG_ASSERT(false, "anchor cell missing from the resilience grid");
    return static_cast<const edgeai::FleetStudy::Report*>(nullptr);
  };
  const auto* none_hot = find(0, 2);
  const auto* retry_hot = find(1, 2);
  const auto* both_hot = find(3, 2);
  const auto* none_cold = find(0, 0);
  r.add_anchor("availability, no resilience @ 0.4 crashes/s (%)",
               none_hot->availability() * 100.0,
               "crashes turn queued work into losses");
  r.add_anchor("retry availability gain @ 0.4 crashes/s (pp)",
               (retry_hot->availability() - none_hot->availability()) * 100.0,
               "failover retries win back nearly all of it");
  r.add_anchor("retry+hedge availability @ 0.4 crashes/s (%)",
               both_hot->availability() * 100.0,
               "the combined policy approaches fault-free service");
  r.add_anchor("hedge-only SLO @ 0.4 crashes/s (%)",
               find(2, 2)->slo_attainment() * 100.0,
               "duplicates amplify the crash backlog; hedge needs retry");
  r.add_anchor("fault-free availability, no resilience (%)",
               none_cold->availability() * 100.0,
               "sanity: zero fault rate loses nothing");
  return r;
}

ScenarioResult degraded_fleet_slo(const RunContext& ctx) {
  ScenarioResult r;
  const EdgeCity city;

  // A 3-GPU fleet with little headroom: losing one server for the MTTR
  // window pushes the survivors into overload, so the SLO damage scales
  // with how long the repair takes, not just with the crash itself.
  constexpr double kCityLoad = 12000.0;
  constexpr std::uint32_t kRequests = 120000;
  const Duration crash_at = Duration::seconds(2);
  const double mttr_ms[] = {25.0, 100.0, 400.0, 1600.0};

  const Campaign campaign{ctx, 0xdead};
  const auto reports = campaign.sweep<edgeai::FleetStudy::Report>(
      std::size(mttr_ms), [&](std::size_t i, std::uint64_t seed) {
        auto config = city.config(3);
        config.arrivals_per_second = kCityLoad;
        config.requests = kRequests;
        config.seed = seed;
        // Scripted, not stochastic: server 0 dies at exactly t=2 s and
        // repairs after the swept MTTR, so every row sees the same
        // incident and only the repair time varies.
        const Duration mttr = Duration::from_millis_f(mttr_ms[i]);
        config.faults.scripted.push_back(
            {crash_at, mttr, 1.0, faults::FaultKind::kServerCrash, 0});
        config.faults.scripted.push_back(
            {crash_at + mttr, {}, 1.0, faults::FaultKind::kServerRecover, 0});
        config.resilience.deadline = Duration::from_millis_f(50.0);
        config.resilience.max_retries = 3;
        config.resilience.retry_backoff = Duration::micros(250);
        return edgeai::FleetStudy::run(config);
      });

  TextTable t{{"MTTR (ms)", "Avail", "<= 20 ms SLO", "p99 (ms)",
               "Timed out", "Lost", "Retries", "Goodput (/s)"}};
  for (std::size_t i = 0; i < std::size(mttr_ms); ++i) {
    const auto& rep = reports[i];
    t.add_row({TextTable::num(mttr_ms[i], 0),
               TextTable::num(rep.availability() * 100.0, 2) + " %",
               TextTable::num(rep.slo_attainment() * 100.0, 1) + " %",
               TextTable::num(rep.e2e_q.quantile(0.99), 2),
               TextTable::integer(std::int64_t(rep.timed_out)),
               TextTable::integer(std::int64_t(rep.lost_to_crashes)),
               TextTable::integer(std::int64_t(rep.retries)),
               TextTable::num(rep.goodput_per_s, 0)});
  }
  r.add_table(std::move(t),
              strf("Scripted crash of 1 of 3 edge GPUs at t=2 s, %.0fk "
                   "req/s det-base, 50 ms deadline + 3 retries; repair "
                   "time swept:",
                   kCityLoad / 1000.0));

  const auto& fast = reports[0];
  const auto& slow = reports[std::size(mttr_ms) - 1];
  r.add_anchor("SLO attainment at 25 ms MTTR (%)",
               fast.slo_attainment() * 100.0,
               "a fast repair is invisible at the SLO");
  r.add_anchor("SLO loss, 25 ms -> 1600 ms MTTR (pp)",
               (fast.slo_attainment() - slow.slo_attainment()) * 100.0,
               "the backlog during repair, not the crash, costs the SLO");
  r.add_anchor("availability at 1600 ms MTTR (%)",
               slow.availability() * 100.0,
               "retries + deadline keep service up through the outage");
  r.add_anchor("timeouts at 1600 ms MTTR", double(slow.timed_out),
               "the deadline sheds the unsalvageable backlog");
  return r;
}

// ------------------------------------- continuous batching + SLO classes

/// Saturation reference for the ladder: one edge GPU sustains ~4.7k
/// det-base req/s at batch 16 (the city-serving provisioning knee).
constexpr double kEdgeGpuCapacity = 4700.0;

ScenarioResult continuous_vs_window(const RunContext& ctx) {
  ScenarioResult r;
  const EdgeCity city;

  // A day in the life of the city: the mean load sits at the 3-GPU knee
  // and the diurnal peak (x1.4) plus flash crowds (x2 bursts) push past
  // it, so the batching mode decides how the fleet rides the waves.
  constexpr double kMeanLoad = 12000.0;
  constexpr std::uint32_t kRequests = 250000;
  edgeai::ArrivalShape day;
  day.diurnal_amplitude = 0.4;
  day.diurnal_period = Duration::seconds(12);  // one compressed "day"
  day.flash_multiplier = 2.0;
  day.flash_every = Duration::seconds(3);
  day.flash_duration = Duration::from_millis_f(250.0);

  struct Mode {
    const char* name;
    bool continuous;
    bool shed;
  };
  const Mode modes[] = {{"window 1 ms", false, false},
                        {"continuous", true, false},
                        {"continuous + shed", true, true}};

  const Campaign campaign{ctx, 0xcb77};
  const auto reports = campaign.sweep<edgeai::FleetStudy::Report>(
      std::size(modes), [&](std::size_t i, std::uint64_t seed) {
        auto config = city.config(3);
        config.arrivals_per_second = kMeanLoad;
        config.requests = kRequests;
        config.seed = seed;
        config.shape = day;
        for (auto& spec : config.servers)
          spec.batching.continuous = modes[i].continuous;
        if (modes[i].shed) {
          // ~10 ms of fleet-wide queue at the 3-GPU service rate: an
          // admitted request can still make the 20 ms SLO.
          edgeai::FleetStudy::SloClassSpec cls;
          cls.name = "std";
          cls.shed_queue_depth = 144;
          config.classes.push_back(cls);
        }
        return edgeai::FleetStudy::run(config);
      });

  TextTable t{{"Mode", "<= 20 ms SLO", "Mean (ms)", "p99 (ms)", "Shed",
               "Dropped", "Batches", "Goodput (/s)"}};
  t.set_align(0, TextTable::Align::kLeft);
  for (std::size_t i = 0; i < std::size(modes); ++i) {
    const auto& rep = reports[i];
    t.add_row({modes[i].name,
               TextTable::num(rep.slo_attainment() * 100.0, 1) + " %",
               TextTable::num(rep.e2e_ms.mean(), 2),
               TextTable::num(rep.e2e_q.quantile(0.99), 2),
               TextTable::integer(std::int64_t(rep.shed)),
               TextTable::integer(std::int64_t(rep.dropped)),
               TextTable::integer(std::int64_t(rep.batches)),
               TextTable::num(rep.goodput_per_s, 0)});
  }
  r.add_table(std::move(t),
              strf("Batching mode under a diurnal + flash-crowd day, "
                   "%.0fk req/s mean det-base over 3 edge GPUs "
                   "(%uk requests per mode):",
                   kMeanLoad / 1000.0, kRequests / 1000));

  const auto& window = reports[0];
  const auto& continuous = reports[1];
  const auto& shed = reports[2];
  r.add_anchor("continuous goodput gain over window (%)",
               window.goodput_per_s > 0.0
                   ? (continuous.goodput_per_s / window.goodput_per_s - 1.0) *
                         100.0
                   : 0.0,
               "iteration-level launch re-forms batches at every completion");
  r.add_anchor("continuous+shed SLO attainment (%)",
               shed.slo_attainment() * 100.0,
               "admission control keeps admitted requests inside the SLO");
  r.add_anchor("p99 of admitted, window vs shed (ms saved)",
               window.e2e_q.quantile(0.99) - shed.e2e_q.quantile(0.99),
               "the flash-crowd backlog never forms");
  r.add_anchor("sheds during the day", double(shed.shed),
               "the price: turned-away arrivals, counted, not hidden");
  return r;
}

ScenarioResult overload_ladder(const RunContext& ctx) {
  ScenarioResult r;
  const EdgeCity city;

  // Offered load laddered against the 2-GPU saturation capacity, with
  // continuous batching and class-based admission control (shed at ~10
  // ms of fleet queue). The question at every rung: where does the
  // excess go — shed at the door, dropped from a full ring, or delivered
  // late?
  const double ladder[] = {0.5, 0.75, 1.0, 1.5, 2.0, 3.0};
  constexpr std::uint32_t kRequests = 60000;
  const double capacity = 2 * kEdgeGpuCapacity;

  const Campaign campaign{ctx, 0x10ad};
  const auto reports = campaign.sweep<edgeai::FleetStudy::Report>(
      std::size(ladder), [&](std::size_t i, std::uint64_t seed) {
        auto config = city.config(2);
        config.arrivals_per_second = capacity * ladder[i];
        config.requests = kRequests;
        config.seed = seed;
        for (auto& spec : config.servers) spec.batching.continuous = true;
        edgeai::FleetStudy::SloClassSpec cls;
        cls.name = "std";
        cls.shed_queue_depth = 96;
        config.classes.push_back(cls);
        return edgeai::FleetStudy::run(config);
      });

  TextTable t{{"x capacity", "Offered (/s)", "<= 20 ms SLO", "Shed",
               "Queue-full", "Goodput (/s)", "p99 (ms)"}};
  for (std::size_t i = 0; i < std::size(ladder); ++i) {
    const auto& rep = reports[i];
    const auto& cls = rep.classes.at(0);
    t.add_row({TextTable::num(ladder[i], 2),
               TextTable::num(capacity * ladder[i], 0),
               TextTable::num(rep.slo_attainment() * 100.0, 1) + " %",
               TextTable::integer(std::int64_t(cls.shed)),
               TextTable::integer(std::int64_t(cls.dropped_queue_full)),
               TextTable::num(rep.goodput_per_s, 0),
               TextTable::num(rep.e2e_q.quantile(0.99), 2)});
  }
  r.add_table(std::move(t),
              strf("Overload ladder, continuous batching + admission "
                   "control, det-base over 2 edge GPUs (capacity %.0f "
                   "req/s, %uk requests per rung):",
                   capacity, kRequests / 1000));

  const auto goodput_at = [&](double x) {
    for (std::size_t i = 0; i < std::size(ladder); ++i)
      if (ladder[i] == x) return reports[i].goodput_per_s;
    SIXG_ASSERT(false, "anchor rung missing from the ladder");
    return 0.0;
  };
  r.add_anchor("goodput at 1.0x capacity (/s)", goodput_at(1.0),
               "the saturation reference");
  r.add_anchor("goodput retained at 3.0x vs 1.0x (%)",
               goodput_at(1.0) > 0.0
                   ? goodput_at(3.0) / goodput_at(1.0) * 100.0
                   : 0.0,
               "admission control holds goodput flat through overload");
  r.add_anchor("sheds at 3.0x", double(reports[5].classes.at(0).shed),
               "excess load is turned away at the door");
  r.add_anchor("queue-full drops at 3.0x",
               double(reports[5].classes.at(0).dropped_queue_full),
               "the shed bound protects the rings: ~no uncontrolled drops");
  return r;
}

ScenarioResult priority_mix_sweep(const RunContext& ctx) {
  ScenarioResult r;
  const EdgeCity city;

  // Two SLO classes at 1.3x the 3-GPU capacity: interactive rides lane 0
  // (drained first at every batch formation), batch analytics rides lane
  // 1 with a relaxed 100 ms SLO and its own shed bound. The sweep moves
  // the interactive share of the mix.
  constexpr std::uint32_t kRequests = 120000;
  const double capacity = 3 * kEdgeGpuCapacity;
  const double interactive_shares[] = {0.10, 0.30, 0.50, 0.70};

  const Campaign campaign{ctx, 0x9121};
  const auto reports = campaign.sweep<edgeai::FleetStudy::Report>(
      std::size(interactive_shares), [&](std::size_t i, std::uint64_t seed) {
        auto config = city.config(3);
        config.arrivals_per_second = capacity * 1.3;
        config.requests = kRequests;
        config.seed = seed;
        for (auto& spec : config.servers) {
          spec.batching.continuous = true;
          spec.batching.lanes = 2;
        }
        edgeai::FleetStudy::SloClassSpec interactive;
        interactive.name = "interactive";
        interactive.share = interactive_shares[i];
        interactive.lane = 0;
        edgeai::FleetStudy::SloClassSpec batch;
        batch.name = "batch";
        batch.share = 1.0 - interactive_shares[i];
        batch.slo = Duration::from_millis_f(100.0);
        batch.lane = 1;
        batch.shed_queue_depth = 192;
        config.classes.push_back(interactive);
        config.classes.push_back(batch);
        return edgeai::FleetStudy::run(config);
      });

  TextTable t{{"Int share", "Int SLO", "Int mean (ms)", "Batch SLO",
               "Batch mean (ms)", "Batch shed", "Goodput (/s)"}};
  for (std::size_t i = 0; i < std::size(interactive_shares); ++i) {
    const auto& rep = reports[i];
    const auto& interactive = rep.classes.at(0);
    const auto& batch = rep.classes.at(1);
    t.add_row({TextTable::num(interactive_shares[i] * 100.0, 0) + " %",
               TextTable::num(interactive.slo_attainment() * 100.0, 1) + " %",
               TextTable::num(interactive.e2e_ms.mean(), 2),
               TextTable::num(batch.slo_attainment() * 100.0, 1) + " %",
               TextTable::num(batch.e2e_ms.mean(), 2),
               TextTable::integer(std::int64_t(batch.shed)),
               TextTable::num(rep.goodput_per_s, 0)});
  }
  r.add_table(std::move(t),
              strf("Priority mix at 1.3x capacity (%.0f req/s, det-base "
                   "over 3 edge GPUs, continuous batching, 2 lanes): "
                   "interactive 20 ms / batch 100 ms SLO:",
                   capacity * 1.3));

  const auto& low = reports[0];
  const auto& high = reports[std::size(interactive_shares) - 1];
  r.add_anchor("interactive SLO at 10 % share (%)",
               low.classes.at(0).slo_attainment() * 100.0,
               "lane 0 is immune to the batch backlog");
  r.add_anchor("interactive SLO at 70 % share (%)",
               high.classes.at(0).slo_attainment() * 100.0,
               "priority holds until interactive itself saturates");
  r.add_anchor("batch mean - interactive mean at 30 % share (ms)",
               reports[1].classes.at(1).e2e_ms.mean() -
                   reports[1].classes.at(0).e2e_ms.mean(),
               "lane order, not luck: the backlog queues in lane 1");
  r.add_anchor("batch sheds at 10 % share",
               double(low.classes.at(1).shed),
               "overload lands on the class built to absorb it");
  return r;
}

}  // namespace

std::size_t register_paper_scenarios(ScenarioRegistry& registry) {
  const Scenario all[] = {
      {"fig1", "Figure 1", "grid segmentation and campaign design", fig1},
      {"fig2", "Figure 2", "urban mean round-trip latency per cell (ms)",
       fig2},
      {"fig3", "Figure 3", "per-cell RTL standard deviation (ms)", fig3},
      {"fig4", "Figure 4", "geographic data trace of the local request",
       fig4},
      {"table1", "Table I", "networking hops for a local service request",
       table1},
      {"fig2-6g", "Figure 2 (projection)",
       "the drive-test grid under the recommended 6G stack", fig2_6g},
      {"requirements", "Sections II-III",
       "requirements analysis and feasibility", requirements},
      {"gap-analysis", "Section IV-C",
       "gap analysis of the measured 5G deployment", gap_analysis},
      {"phy-latency", "Section IV-C (PHY)",
       "mmWave layer-1/2 latency distribution [22]", phy_latency},
      {"latency-decomposition", "DESIGN ablation",
       "decomposition of the measured RTL", latency_decomposition},
      {"ablation-peering", "Section V-A",
       "local peering optimisation ablation", ablation_peering},
      {"ablation-upf", "Section V-B",
       "UPF placement x access generation sweep", ablation_upf},
      {"ablation-cpf", "Section V-C", "control-plane enhancement ablations",
       ablation_cpf},
      {"ablation-slicing", "Section V-C (slicing)",
       "hypervisor placement, reconfiguration policy, slice admission",
       ablation_slicing},
      {"ablation-energy", "Section VI (future work)",
       "energy per bit: 5G macro vs 6G with micro-sleep", ablation_energy},
      {"upf-autoscale", "Section V-B ([29])",
       "UPF instance autoscaling policies", upf_autoscale},
      {"smartnic-upf", "Section V-B (SmartNIC)",
       "host vs SmartNIC UPF datapath comparison", smartnic_upf},
      {"federated-edge", "Section VI (future work)",
       "federated learning rounds across network regimes", federated_edge},
      {"ar-game", "Section IV-A", "AR game playability across regimes",
       ar_game},
      {"atlas-design", "Methodology", "campaign precision vs sample count",
       atlas_design},
      {"edge-inference-latency", "Section VI (edge AI)",
       "inference serving across network regimes + AR frame loop",
       edge_inference_latency},
      {"batching-ablation", "Section VI (edge AI)",
       "dynamic batching: window x max batch on the edge GPU",
       batching_ablation},
      {"offload-policy", "Section VI (edge AI)",
       "device/edge/cloud offload policies across radio cells",
       offload_policy},
      {"energy-inference", "Section VI (edge AI)",
       "per-request inference energy accounting across tiers",
       energy_inference},
      {"city-serving", "North star (fleet serving)",
       "1M+ requests across a 6G edge fleet: SLO attainment vs fleet size",
       city_serving},
      {"fleet-dispatch-ablation", "North star (fleet serving)",
       "dispatch policy x fleet size, edge GPUs + cloud backstop",
       fleet_dispatch_ablation},
      {"city-serving-sharded", "North star (sharded fleet)",
       "multi-pod city serving on conservative-window sharded timelines",
       city_serving_sharded},
      {"link-failure-sweep", "Robustness (fault model)",
       "seed-scheduled fibre cuts: reroute, recompile, repair",
       link_failure_sweep},
      {"fleet-resilience-ablation", "Robustness (fault model)",
       "retry/hedge policy x server crash rate over the edge fleet",
       fleet_resilience_ablation},
      {"degraded-fleet-slo", "Robustness (fault model)",
       "scripted server crash: SLO and availability vs repair time",
       degraded_fleet_slo},
      {"continuous-vs-window", "Serving engine (continuous batching)",
       "batching mode under a diurnal + flash-crowd day-in-the-life load",
       continuous_vs_window},
      {"overload-ladder", "Serving engine (overload control)",
       "0.5x-3x capacity ladder: shed vs queue-full vs delivered-late",
       overload_ladder},
      {"priority-mix-sweep", "Serving engine (SLO classes)",
       "interactive/batch priority lanes at 1.3x capacity overload",
       priority_mix_sweep},
  };
  std::size_t added = 0;
  for (const auto& scenario : all) {
    if (registry.add(scenario)) ++added;
  }
  return added;
}

}  // namespace sixg::core
