#include "radio/energy.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/assert.hpp"

namespace sixg::radio {
namespace {

constexpr double kMaxPaWatts = 1100.0;        ///< PA at full PRB utilisation
constexpr double kSleepWatts = 120.0;         ///< deep micro-sleep floor
constexpr double kSleepEntryOverhead = 0.08;  ///< fraction of idle unusable

}  // namespace

GnbEnergyModel GnbEnergyModel::fiveg_macro() {
  return GnbEnergyModel{Params{}};
}

GnbEnergyModel GnbEnergyModel::sixg_micro_sleep() {
  return GnbEnergyModel{Params{.static_watts = 650.0,
                               .micro_sleep = true,
                               .cell_peak_rate = DataRate::gbps(10)}};
}

double GnbEnergyModel::average_watts(double load) const {
  SIXG_ASSERT(load >= 0.0 && load <= 1.0, "load must be in [0,1]");
  const double active_share = load;
  const double idle_share = 1.0 - load;
  const double pa = kMaxPaWatts * load;
  if (!params_.micro_sleep) return params_.static_watts + pa;
  // Micro-sleep: the idle fraction (minus wake/sleep transitions) draws
  // the sleep floor instead of full static power.
  const double sleepable = std::max(0.0, idle_share - kSleepEntryOverhead);
  const double awake = 1.0 - sleepable;
  return awake * params_.static_watts + sleepable * kSleepWatts +
         pa * (active_share > 0 ? 1.0 : 0.0);
}

double GnbEnergyModel::nj_per_bit(double load) const {
  SIXG_ASSERT(load > 0.0, "energy per bit undefined at zero load");
  const double watts = average_watts(load);
  const double bps = double(params_.cell_peak_rate.bits_per_second()) * load;
  return watts / bps * 1e9;
}

double GnbEnergyModel::daily_kwh(double mean_load,
                                 double peak_to_trough) const {
  // Sinusoidal diurnal load around the mean, clipped to [0.02, 1].
  double joules = 0.0;
  const int steps = 24 * 60;
  for (int i = 0; i < steps; ++i) {
    const double phase = 2.0 * std::numbers::pi * double(i) / double(steps);
    const double swing = (peak_to_trough - 1.0) / (peak_to_trough + 1.0);
    const double load = std::clamp(
        mean_load * (1.0 + swing * std::sin(phase)), 0.02, 1.0);
    joules += average_watts(load) * 60.0;
  }
  return joules / 3.6e6;
}

TextTable GnbEnergyModel::comparison_table() {
  const GnbEnergyModel a = fiveg_macro();
  const GnbEnergyModel b = sixg_micro_sleep();

  TextTable t{{"Load", "5G avg W", "6G avg W", "5G nJ/bit", "6G nJ/bit",
               "energy/bit gain"}};
  for (const double load : {0.05, 0.15, 0.30, 0.60, 0.90}) {
    t.add_row({TextTable::num(load * 100.0, 0) + " %",
               TextTable::num(a.average_watts(load), 0),
               TextTable::num(b.average_watts(load), 0),
               TextTable::num(a.nj_per_bit(load), 0),
               TextTable::num(b.nj_per_bit(load), 0),
               TextTable::num(a.nj_per_bit(load) / b.nj_per_bit(load), 1) +
                   "x"});
  }
  return t;
}

}  // namespace sixg::radio
