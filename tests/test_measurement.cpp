#include <gtest/gtest.h>

#include "geo/grid.hpp"
#include "geo/population.hpp"
#include "measurement/grid_campaign.hpp"
#include "measurement/ping.hpp"
#include "netsim/parallel.hpp"
#include "radio/conditions.hpp"
#include "radio/profile.hpp"
#include "topo/europe.hpp"

namespace sixg::meas {
namespace {

class MeasurementFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    grid_ = new geo::SectorGrid(geo::SectorGrid::klagenfurt_sector());
    pop_ = new geo::PopulationRaster(geo::PopulationRaster::klagenfurt(*grid_));
    rem_ = new radio::RadioEnvironmentMap(
        radio::RadioEnvironmentMap::klagenfurt(*grid_, *pop_));
    world_ = new topo::EuropeTopology(topo::build_europe());
  }
  static void TearDownTestSuite() {
    delete world_;
    delete rem_;
    delete pop_;
    delete grid_;
    world_ = nullptr;
    rem_ = nullptr;
    pop_ = nullptr;
    grid_ = nullptr;
  }

  static GridCampaign make_campaign(const GridCampaign::Config& config = {}) {
    return GridCampaign{*grid_,
                        *pop_,
                        *rem_,
                        world_->net,
                        world_->mobile_ue,
                        world_->university_probe,
                        radio::AccessProfile::fiveg_nsa(),
                        config};
  }

  static geo::SectorGrid* grid_;
  static geo::PopulationRaster* pop_;
  static radio::RadioEnvironmentMap* rem_;
  static topo::EuropeTopology* world_;
};

geo::SectorGrid* MeasurementFixture::grid_ = nullptr;
geo::PopulationRaster* MeasurementFixture::pop_ = nullptr;
radio::RadioEnvironmentMap* MeasurementFixture::rem_ = nullptr;
topo::EuropeTopology* MeasurementFixture::world_ = nullptr;

// ---------------------------------------------------------------- ping

TEST_F(MeasurementFixture, WiredPingReachableAndPositive) {
  const PingMeasurement ping{world_->net, world_->wired_host,
                             world_->university_probe};
  ASSERT_TRUE(ping.reachable());
  Rng rng{1};
  const auto result = ping.run(200, rng);
  EXPECT_EQ(result.summary_ms.count(), 200u);
  EXPECT_GT(result.summary_ms.min(), 0.0);
  // Never below the deterministic path floor.
  const double floor_ms = 2.0 * ping.path().base_one_way.ms();
  EXPECT_GE(result.summary_ms.min(), floor_ms - 1e-9);
}

TEST_F(MeasurementFixture, MobilePingAddsRadioLatency) {
  const radio::RadioLinkModel nsa{radio::AccessProfile::fiveg_nsa()};
  const auto conditions = rem_->at(*grid_->parse_label("C2"));
  const PingMeasurement wired{world_->net, world_->mobile_ue,
                              world_->university_probe};
  const PingMeasurement mobile{world_->net, world_->mobile_ue,
                               world_->university_probe, nsa, conditions};
  Rng rng_a{2};
  Rng rng_b{2};
  const auto w = wired.run(300, rng_a);
  const auto m = mobile.run(300, rng_b);
  EXPECT_GT(m.summary_ms.mean(), w.summary_ms.mean() + 10.0);
}

TEST_F(MeasurementFixture, PingDeterministicPerSeed) {
  const PingMeasurement ping{world_->net, world_->wired_host,
                             world_->university_probe};
  Rng a{3};
  Rng b{3};
  for (int i = 0; i < 50; ++i)
    EXPECT_DOUBLE_EQ(ping.sample_ms(a), ping.sample_ms(b));
}

// ---------------------------------------------------------------- campaign

TEST_F(MeasurementFixture, CampaignParallelEqualsSerial) {
  const auto campaign = make_campaign();
  const netsim::ParallelRunner serial{1};
  const netsim::ParallelRunner parallel{4};
  const GridReport a = campaign.run(serial);
  const GridReport b = campaign.run(parallel);
  for (const auto cell : grid_->all_cells()) {
    EXPECT_EQ(a.at(cell).sample_count, b.at(cell).sample_count);
    EXPECT_DOUBLE_EQ(a.at(cell).rtt_ms.mean(), b.at(cell).rtt_ms.mean());
    EXPECT_DOUBLE_EQ(a.at(cell).rtt_ms.stddev(), b.at(cell).rtt_ms.stddev());
  }
}

TEST_F(MeasurementFixture, CampaignDeterministicPerSeed) {
  const auto campaign = make_campaign();
  const netsim::ParallelRunner runner;
  const GridReport a = campaign.run(runner);
  const GridReport b = campaign.run(runner);
  EXPECT_EQ(a.traversed_count(), b.traversed_count());
  for (const auto cell : grid_->all_cells())
    EXPECT_DOUBLE_EQ(a.at(cell).rtt_ms.mean(), b.at(cell).rtt_ms.mean());
}

TEST_F(MeasurementFixture, DifferentSeedsChangeTheDrive) {
  const GridCampaign::Config a_config;
  const GridCampaign::Config b_config{.seed = a_config.seed + 1};
  const netsim::ParallelRunner runner;
  const GridReport a = make_campaign(a_config).run(runner);
  const GridReport b = make_campaign(b_config).run(runner);
  bool differs = false;
  for (const auto cell : grid_->all_cells())
    differs = differs || a.at(cell).sample_count != b.at(cell).sample_count;
  EXPECT_TRUE(differs);
}

TEST_F(MeasurementFixture, SuppressionRuleHonoursMinSamples) {
  const netsim::ParallelRunner runner;
  const GridReport report = make_campaign().run(runner);
  for (const auto cell : grid_->all_cells()) {
    const auto& r = report.at(cell);
    if (!r.traversed) {
      EXPECT_FALSE(report.reports(cell));
    } else if (r.sample_count < GridReport::kMinSamples) {
      EXPECT_FALSE(report.reports(cell));
    } else {
      EXPECT_TRUE(report.reports(cell));
    }
  }
}

TEST_F(MeasurementFixture, ReportTablesHaveGridShape) {
  const netsim::ParallelRunner runner;
  const GridReport report = make_campaign().run(runner);
  EXPECT_EQ(report.mean_table().row_count(), std::size_t(grid_->rows()));
  EXPECT_EQ(report.stddev_table().row_count(), std::size_t(grid_->rows()));
  EXPECT_EQ(report.count_table().row_count(), std::size_t(grid_->rows()));
}

TEST_F(MeasurementFixture, ExtremesComeFromReportingCells) {
  const netsim::ParallelRunner runner;
  const GridReport report = make_campaign().run(runner);
  const auto min_mean = report.min_mean();
  const auto max_mean = report.max_mean();
  ASSERT_FALSE(min_mean.label.empty());
  ASSERT_FALSE(max_mean.label.empty());
  EXPECT_LE(min_mean.value, max_mean.value);
  const auto min_cell = grid_->parse_label(min_mean.label);
  ASSERT_TRUE(min_cell.has_value());
  EXPECT_TRUE(report.reports(*min_cell));
}

TEST_F(MeasurementFixture, OnePlanPerMobileNode) {
  EXPECT_EQ(make_campaign().plans().size(), GridCampaign::kMobileNodes);
}

}  // namespace
}  // namespace sixg::meas
