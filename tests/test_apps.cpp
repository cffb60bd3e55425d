#include <gtest/gtest.h>

#include "apps/ar_game.hpp"
#include "apps/protocols.hpp"
#include "apps/traffic.hpp"
#include "stats/summary.hpp"

namespace sixg::apps {
namespace {

using namespace sixg::literals;

// ---------------------------------------------------------------- protocols

TEST(Protocols, OverheadInSurveyBand) {
  // Baylms et al. [14]: IoT protocols add ~5-8 ms.
  for (const auto p :
       {IotProtocol::kMqtt, IotProtocol::kAmqp, IotProtocol::kCoap}) {
    const double ms = ProtocolOverheadModel::expected_overhead(p).ms();
    EXPECT_GE(ms, 4.0) << to_string(p);
    EXPECT_LE(ms, 9.0) << to_string(p);
  }
  EXPECT_LT(ProtocolOverheadModel::expected_overhead(IotProtocol::kRawUdp)
                .ms(),
            0.5);
}

TEST(Protocols, RelativeOrdering) {
  const double mqtt =
      ProtocolOverheadModel::expected_overhead(IotProtocol::kMqtt).ms();
  const double amqp =
      ProtocolOverheadModel::expected_overhead(IotProtocol::kAmqp).ms();
  const double coap =
      ProtocolOverheadModel::expected_overhead(IotProtocol::kCoap).ms();
  EXPECT_LT(coap, mqtt);
  EXPECT_LT(mqtt, amqp);
}

TEST(Protocols, SampleMeanTracksExpectation) {
  Rng rng{1};
  stats::Summary s;
  for (int i = 0; i < 50000; ++i)
    s.add(ProtocolOverheadModel::sample_overhead(IotProtocol::kMqtt, rng)
              .ms());
  EXPECT_NEAR(
      s.mean() /
          ProtocolOverheadModel::expected_overhead(IotProtocol::kMqtt).ms(),
      1.0, 0.05);
}

// ---------------------------------------------------------------- AR game

ArGameSession::Config fast_config() {
  ArGameSession::Config config;
  config.frames = 6000;
  return config;
}

TEST(ArGame, PerfectNetworkIsFullyConsistent) {
  const ArGameSession session{
      [](Rng&) { return Duration::micros(100); }, fast_config()};
  const auto report = session.run();
  EXPECT_DOUBLE_EQ(report.consistent_frame_share, 1.0);
  EXPECT_DOUBLE_EQ(report.mis_registration_share, 0.0);
  EXPECT_TRUE(report.playable());
}

TEST(ArGame, SlowNetworkIsUnplayable) {
  const ArGameSession session{
      [](Rng&) { return Duration::from_millis_f(61.0); }, fast_config()};
  const auto report = session.run();
  EXPECT_DOUBLE_EQ(report.consistent_frame_share, 0.0);
  EXPECT_DOUBLE_EQ(report.mis_registration_share, 1.0);
  EXPECT_FALSE(report.playable());
}

TEST(ArGame, BudgetBoundaryIsExact) {
  // Exactly at budget: consistent. Just over: not.
  const ArGameSession at{[](Rng&) { return Duration::from_millis_f(20.0); },
                         fast_config()};
  EXPECT_DOUBLE_EQ(at.run().consistent_frame_share, 1.0);
  const ArGameSession over{
      [](Rng&) { return Duration::from_millis_f(20.01); }, fast_config()};
  EXPECT_DOUBLE_EQ(over.run().consistent_frame_share, 0.0);
}

TEST(ArGame, ConsistencyMonotoneInLatency) {
  double prev = 1.1;
  for (double ms : {5.0, 15.0, 19.0, 21.0, 40.0}) {
    ArGameSession::Config config = fast_config();
    config.seed = 1234;  // same pacing draws
    const ArGameSession session{
        [ms](Rng& rng) {
          return Duration::from_millis_f(ms + rng.uniform(0.0, 4.0));
        },
        config};
    const double share = session.run().consistent_frame_share;
    EXPECT_LE(share, prev + 1e-9) << ms;
    prev = share;
  }
}

TEST(ArGame, FrameAgeIncludesPipelineAndPacing) {
  ArGameSession::Config config = fast_config();
  const ArGameSession session{
      [](Rng&) { return Duration::from_millis_f(10.0); }, config};
  const auto report = session.run();
  // age = RTT/2 (5) + mean pacing (8.3) + render (3.2) ~ 16.5 ms.
  EXPECT_NEAR(report.frame_age_ms.mean(), 16.5, 0.5);
}

TEST(ArGame, ThrowRateMatchesConstant) {
  ArGameSession::Config config = fast_config();
  config.frames = 60000;
  const ArGameSession session{
      [](Rng&) { return Duration::from_millis_f(5.0); }, config};
  const auto report = session.run();
  const double seconds = config.frames / ArGameSession::kFrameRateHz;
  EXPECT_NEAR(report.throws / seconds, ArGameSession::kThrowsPerSecond,
              0.1 * ArGameSession::kThrowsPerSecond);
}

TEST(ArGame, DeterministicPerSeed) {
  const auto run = [] {
    ArGameSession::Config config = fast_config();
    config.seed = 99;
    const ArGameSession session{
        [](Rng& rng) {
          return Duration::from_millis_f(15.0 + 10.0 * rng.uniform());
        },
        config};
    return session.run();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.consistent_frame_share, b.consistent_frame_share);
  EXPECT_EQ(a.throws, b.throws);
}

// ---------------------------------------------------------------- traffic

TEST(Traffic, AutonomousVehicleMatchesPaperVolume) {
  const auto av = DomainTraffic::autonomous_vehicle();
  EXPECT_DOUBLE_EQ(av.volume_per_day.byte_count(), 4e12);  // 4 TB/day
  // 4 TB / 86400 s ~ 370 Mbps sustained.
  EXPECT_NEAR(av.sustained_rate.mbps_f(), 370.0, 10.0);
}

TEST(Traffic, FactoryLineMatchesPaperVolume) {
  const auto line = DomainTraffic::smart_factory_line();
  EXPECT_DOUBLE_EQ(line.volume_per_day.byte_count(), 5e12);  // >5 TB/day
}

TEST(Traffic, SurgeryExceedsTenGigabytesPerDay) {
  const auto surgery = DomainTraffic::remote_surgery();
  EXPECT_GT(surgery.volume_per_day.byte_count(), 10e9);
}

TEST(Traffic, AllDomainsEnumerated) {
  const auto all = DomainTraffic::all();
  EXPECT_EQ(all.size(), 5u);
  const auto matrix = DomainTraffic::matrix();
  EXPECT_EQ(matrix.row_count(), all.size());
}

TEST(Traffic, ScalabilityArithmetic) {
  const ScalabilityModel model;
  // 125e9 devices / 1.9e6 km^2 ~ 66k devices per km^2.
  EXPECT_NEAR(model.required_density(), 65789.0, 1000.0);
  EXPECT_TRUE(model.feasible_5g());  // at the design target, on paper
  EXPECT_TRUE(model.feasible_6g());
  // But halve the urban area (devices concentrate) and 5G breaks.
  ScalabilityModel dense = model;
  dense.urbanised_area_km2 /= 2.0;
  EXPECT_FALSE(dense.feasible_5g());
  EXPECT_TRUE(dense.feasible_6g());
}

}  // namespace
}  // namespace sixg::apps
