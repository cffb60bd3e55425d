#include <gtest/gtest.h>

#include "measurement/atlas.hpp"
#include "radio/conditions.hpp"
#include "radio/link_model.hpp"
#include "radio/profile.hpp"
#include "topo/europe.hpp"

namespace sixg::meas {
namespace {

class AtlasFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new topo::EuropeTopology(topo::build_europe());
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static topo::EuropeTopology* world_;
};

topo::EuropeTopology* AtlasFixture::world_ = nullptr;

TEST_F(AtlasFixture, PeriodicScheduleProducesExpectedSampleCount) {
  AtlasFleet fleet{world_->net};
  const ProbeId probe = fleet.add_probe("wired", world_->wired_host);
  fleet.schedule_ping(probe, world_->university_probe);
  const auto results = fleet.run(AtlasFleet::kPeriod * 240, 1);
  ASSERT_EQ(results.size(), 1u);
  // One firing per period from the start offset in [0, kPeriod). The
  // horizon is half-open (kernel run_until contract), so a run of 240
  // periods holds exactly 240 pings whatever the offset.
  EXPECT_EQ(results[0].scheduled, 240u);
  EXPECT_EQ(results[0].rtt_ms.count() + results[0].lost,
            results[0].scheduled);
}

TEST_F(AtlasFixture, SpreadStartStaggersWithinOnePeriod) {
  AtlasFleet fleet{world_->net};
  const ProbeId probe = fleet.add_probe("wired", world_->wired_host);
  fleet.schedule_ping(probe, world_->university_probe);
  const auto results =
      fleet.run(AtlasFleet::kPeriod * 240 + AtlasFleet::kPeriod / 2, 2);
  // Offset in [0, kPeriod): either 240 or 241 firings fit the run.
  EXPECT_GE(results[0].scheduled, 240u);
  EXPECT_LE(results[0].scheduled, 241u);
}

TEST_F(AtlasFixture, LossRateDropsSamplesButCountsSchedules) {
  AtlasFleet fleet{world_->net};
  const ProbeId probe = fleet.add_probe("wired", world_->wired_host);
  fleet.schedule_ping(probe, world_->university_probe);
  const auto results = fleet.run(AtlasFleet::kPeriod * 40000, 3);
  EXPECT_EQ(results[0].scheduled, 40000u);
  EXPECT_NEAR(double(results[0].lost) / double(results[0].scheduled),
              AtlasFleet::kLossRate, 0.004);  // ~6 sd at 40,000 pings
  EXPECT_EQ(results[0].rtt_ms.count() + results[0].lost,
            results[0].scheduled);
}

TEST_F(AtlasFixture, MobileProbeMeasuresHigherThanWired) {
  AtlasFleet fleet{world_->net};
  const radio::RadioLinkModel nsa{radio::AccessProfile::fiveg_nsa()};
  const radio::CellConditions conditions{.load = 0.4, .quality = 0.8,
                                         .bler = 0.08, .spike_rate = 0.01};
  const ProbeId wired = fleet.add_probe("wired", world_->wired_host);
  const ProbeId mobile = fleet.add_mobile_probe("mobile", world_->mobile_ue,
                                                nsa, conditions);
  fleet.schedule_ping(wired, world_->university_probe);
  fleet.schedule_ping(mobile, world_->university_probe);
  const auto results = fleet.run(Duration::seconds(7200), 4);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[1].rtt_ms.mean(), 4.0 * results[0].rtt_ms.mean());
}

TEST_F(AtlasFixture, MultipleSchedulesPerProbeAccumulate) {
  AtlasFleet fleet{world_->net};
  const ProbeId probe = fleet.add_probe("wired", world_->wired_host);
  fleet.schedule_ping(probe, world_->university_probe);
  fleet.schedule_ping(probe, world_->cloud_vienna);
  const auto results = fleet.run(AtlasFleet::kPeriod * 10, 5);
  EXPECT_EQ(results[0].scheduled, 20u);  // 10 per schedule
}

TEST_F(AtlasFixture, DeterministicPerSeed) {
  const auto run_fleet = [&] {
    AtlasFleet fleet{world_->net};
    const ProbeId probe = fleet.add_probe("wired", world_->wired_host);
    fleet.schedule_ping(probe, world_->university_probe);
    return fleet.run(Duration::seconds(600), 42);
  };
  const auto a = run_fleet();
  const auto b = run_fleet();
  EXPECT_DOUBLE_EQ(a[0].rtt_ms.mean(), b[0].rtt_ms.mean());
  EXPECT_EQ(a[0].scheduled, b[0].scheduled);
  EXPECT_EQ(a[0].lost, b[0].lost);
}

}  // namespace
}  // namespace sixg::meas
