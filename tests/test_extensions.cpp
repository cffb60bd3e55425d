// Tests for the extension/future-work models: mmWave PHY, federated
// learning rounds, gNB energy.

#include <gtest/gtest.h>

#include "apps/federated.hpp"
#include "radio/energy.hpp"
#include "radio/mmwave.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"

namespace sixg {
namespace {

// ---------------------------------------------------------------- mmWave

TEST(MmWavePhy, CdfMatchesFezeuShape) {
  const radio::MmWavePhyModel phy;
  Rng rng{1};
  stats::Histogram hist{0.0, 25.0, 100};
  for (int i = 0; i < 200000; ++i) hist.add(phy.sample_one_way(rng).ms());
  // Fezeu et al. [22]: 4.4 % under 1 ms, 22.36 % under 3 ms.
  EXPECT_NEAR(hist.cdf(1.0) * 100.0, 4.4, 2.0);
  EXPECT_NEAR(hist.cdf(3.0) * 100.0, 22.36, 6.0);
  // Bulk of packets beyond 3 ms: beam management dominates.
  EXPECT_LT(hist.cdf(3.0), 0.5);
}

// ---------------------------------------------------------------- federated

TEST(Federated, RoundTimeGatedByStragglers) {
  const apps::FederatedRoundModel model{
      [](Rng&) { return Duration::from_millis_f(5.0); },
      apps::FederatedRoundModel::Config{}};
  const auto report = model.run();
  // Round time must exceed median training + transfer: the max over 32
  // lognormal draws sits well above the median.
  EXPECT_GT(report.round_seconds.mean(),
            apps::FederatedRoundModel::kLocalTrainingMean.sec() + 1.0);
  EXPECT_GT(report.straggler_wait_seconds.mean(), 0.5);
}

TEST(Federated, SlowerNetworkRaisesNetworkShare) {
  const auto run_with_rate = [](DataRate rate) {
    apps::FederatedRoundModel::Config config;
    config.uplink_rate = rate;
    const apps::FederatedRoundModel model{
        [](Rng&) { return Duration::from_millis_f(10.0); }, config};
    return model.run();
  };
  const auto fast = run_with_rate(DataRate::mbps(100));
  const auto slow = run_with_rate(DataRate::mbps(8));
  EXPECT_GT(slow.network_share, fast.network_share);
  EXPECT_GT(slow.round_seconds.mean(), fast.round_seconds.mean());
}

TEST(Federated, MathisBoundScalesAsExpected) {
  const Duration rtt = Duration::from_millis_f(100.0);
  const auto rate = apps::tcp_throughput_bound(rtt, 1e-4);
  // MSS 1460 B: 1460*8 / (0.1 * 0.01) = 11.68 Mbps.
  EXPECT_NEAR(rate.mbps_f(), 11.68, 0.1);
  // Quadrupling loss halves throughput.
  const auto lossy = apps::tcp_throughput_bound(rtt, 4e-4);
  EXPECT_NEAR(rate.mbps_f() / lossy.mbps_f(), 2.0, 0.01);
  // Halving RTT doubles it.
  const auto near_rtt =
      apps::tcp_throughput_bound(Duration::from_millis_f(50.0), 1e-4);
  EXPECT_NEAR(near_rtt.mbps_f() / rate.mbps_f(), 2.0, 0.01);
}

TEST(Federated, EffectiveUplinkCapsAtAccessRate) {
  const DataRate access = DataRate::mbps(40);
  // Tiny RTT: bound is huge, access wins.
  EXPECT_EQ(apps::effective_uplink(access, Duration::micros(500), 1e-4)
                .bits_per_second(),
            access.bits_per_second());
  // Long RTT: bound wins.
  EXPECT_LT(apps::effective_uplink(access, Duration::from_millis_f(200), 1e-3)
                .mbps_f(),
            5.0);
}

// ---------------------------------------------------------------- energy

TEST(Energy, PowerMonotoneInLoad) {
  const radio::GnbEnergyModel model{radio::GnbEnergyModel::Params{}};
  double prev = -1.0;
  for (double load : {0.0, 0.2, 0.5, 0.8, 1.0}) {
    const double watts = model.average_watts(load);
    EXPECT_GT(watts, prev);
    prev = watts;
  }
}

TEST(Energy, MicroSleepSavesAtLowLoadOnly) {
  radio::GnbEnergyModel::Params base;
  radio::GnbEnergyModel::Params sleepy = base;
  sleepy.micro_sleep = true;
  const radio::GnbEnergyModel a{base};
  const radio::GnbEnergyModel b{sleepy};
  EXPECT_LT(b.average_watts(0.05), 0.6 * a.average_watts(0.05));
  // At full load there is nothing to sleep through.
  EXPECT_NEAR(b.average_watts(1.0), a.average_watts(1.0),
              a.average_watts(1.0) * 0.02);
}

TEST(Energy, EnergyPerBitFallsWithLoad) {
  const radio::GnbEnergyModel model{radio::GnbEnergyModel::Params{}};
  // Static power amortises over more bits.
  EXPECT_GT(model.nj_per_bit(0.05), model.nj_per_bit(0.5));
  EXPECT_GT(model.nj_per_bit(0.5), model.nj_per_bit(0.95));
}

TEST(Energy, DailyKwhPlausibleForMacroCell) {
  const radio::GnbEnergyModel model{radio::GnbEnergyModel::Params{}};
  const double kwh = model.daily_kwh(0.25);
  // Macro 5G sites draw roughly 20-40 kWh/day.
  EXPECT_GT(kwh, 15.0);
  EXPECT_LT(kwh, 45.0);
}

}  // namespace
}  // namespace sixg
