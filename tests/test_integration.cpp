// Cross-module integration tests: the full pipeline from scenario
// construction through campaign, gap analysis, recommendations and the
// application verdict — the complete reproduction path exercised end to
// end, plus determinism of the whole stack.

#include <gtest/gtest.h>

#include "apps/ar_game.hpp"
#include "core/gap.hpp"
#include "core/scenario.hpp"
#include "core/whatif.hpp"
#include "fivegcore/placement.hpp"
#include "measurement/ping.hpp"
#include "radio/link_model.hpp"
#include "slicing/admission.hpp"
#include "topo/traceroute.hpp"

namespace sixg {
namespace {

TEST(Integration, FullPipelineEndToEnd) {
  // 1. Build the calibrated world and run the measurement campaign.
  const core::KlagenfurtStudy study;
  const auto report = study.campaign(study.access_profile(), 0x9a24)
                          .run(netsim::ParallelRunner{});
  ASSERT_GT(report.traversed_count(), 20);

  // 2. Gap analysis must find the paper's story: a large excess over the
  //    binding requirement.
  const core::GapAnalysis gap{
      report, study.wired_baseline(),
      core::RequirementsRegistry::paper_registry().binding_requirement()};
  EXPECT_GT(gap.findings().requirement_excess_percent, 150.0);

  // 3. The recommendation engine must show each fix helping.
  const core::WhatIfEngine engine;
  for (const auto& r : engine.local_peering())
    EXPECT_GE(r.before, r.after) << r.metric;

  // 4. And the AR application becomes playable only on the fixed stack.
  topo::EuropeOptions fixed;
  fixed.local_breakout = true;
  fixed.local_peering = true;
  const auto peered = topo::build_europe(fixed);
  const radio::RadioLinkModel sixg_radio{radio::AccessProfile::sixg()};
  const radio::CellConditions clean{.load = 0.3, .quality = 0.9,
                                    .bler = 0.01, .spike_rate = 0.001};
  const meas::PingMeasurement ping{peered.net, peered.mobile_ue,
                                   peered.university_probe, sixg_radio,
                                   clean};
  apps::ArGameSession::Config game_config;
  game_config.frames = 3000;
  const apps::ArGameSession session{
      [&](Rng& rng) { return Duration::from_millis_f(ping.sample_ms(rng)); },
      game_config};
  EXPECT_TRUE(session.run().playable());
}

TEST(Integration, WholeStackIsDeterministic) {
  const auto run_once = [] {
    const core::KlagenfurtStudy study;
    const auto report = study.campaign(study.access_profile(), 0x9a24)
                            .run(netsim::ParallelRunner{});
    const auto min_mean = report.min_mean();
    const auto max_sd = report.max_stddev();
    return std::make_tuple(min_mean.label, min_mean.value, max_sd.label,
                           max_sd.value);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Integration, TracerouteAndPathAgree) {
  const core::KlagenfurtStudy study;
  const auto& europe = study.europe();
  const auto path =
      europe.net.find_path(europe.mobile_ue, europe.university_probe);
  Rng rng{1};
  const auto trace = topo::traceroute(europe.net, europe.mobile_ue,
                                      europe.university_probe, rng);
  ASSERT_TRUE(trace.reached);
  EXPECT_EQ(trace.hop_count(), path.hop_count());
  EXPECT_DOUBLE_EQ(trace.total_km, path.distance_km);
  // Last hop in the trace is the probe itself.
  EXPECT_EQ(trace.hops.back().node, europe.university_probe);
}

TEST(Integration, PlacementStudyConsistentWithCampaign) {
  // The placement study's kNone baseline measures the same world as the
  // campaign: its mean must sit inside the campaign's cell-mean range.
  const core::KlagenfurtStudy study;
  const auto report = study.campaign(study.access_profile(), 0x9a24)
                          .run(netsim::ParallelRunner{});

  topo::EuropeOptions options;
  options.local_breakout = true;
  const auto world = topo::build_europe(options);
  const core5g::UpfPlacementStudy placement{world};
  const auto baseline = placement.evaluate(core5g::UpfPlacement::kNone,
                                           radio::AccessProfile::fiveg_nsa());
  EXPECT_GT(baseline.mean_rtt_ms, report.min_mean().value - 10.0);
  EXPECT_LT(baseline.mean_rtt_ms, report.max_mean().value + 10.0);
}

TEST(Integration, SlicingVerdictFollowsTopologyFix) {
  // The URLLC slice portfolio is only admissible once V-A/V-B are applied
  // — connecting the slicing layer to the measurement findings.
  const auto count_admitted = [](bool fixed) {
    topo::EuropeOptions options;
    options.local_breakout = fixed;
    options.local_peering = fixed;
    const auto world = topo::build_europe(options);
    slicing::SliceAdmission admission{world.net};
    int admitted = 0;
    for (std::uint32_t i = 1; i <= 3; ++i) {
      const auto spec = slicing::SliceSpec::vehicle_coordination(i);
      if (admission.admit(spec, world.mobile_ue, world.university_probe))
        ++admitted;
    }
    return admitted;
  };
  EXPECT_EQ(count_admitted(false), 0);
  EXPECT_EQ(count_admitted(true), 3);
}

TEST(Integration, CampaignSeedSweepKeepsShape) {
  // The paper-shape conclusions are not a one-seed accident: across
  // campaign seeds, mobile stays several times slower than wired and the
  // per-cell extremes stay in the published order of magnitude.
  const core::KlagenfurtStudy study;
  const auto wired = study.wired_baseline();
  for (const std::uint64_t seed : {0x9a24ull, 0x1111ull, 0xdeadull}) {
    const auto report = study.campaign(study.access_profile(), seed)
                            .run(netsim::ParallelRunner{});
    const double ratio =
        report.mean_of_cell_means().mean() / wired.mean();
    EXPECT_GT(ratio, 5.0) << seed;
    EXPECT_LT(ratio, 10.0) << seed;
    EXPECT_GT(report.min_mean().value, 50.0) << seed;
    EXPECT_LT(report.max_mean().value, 130.0) << seed;
  }
}

}  // namespace
}  // namespace sixg
