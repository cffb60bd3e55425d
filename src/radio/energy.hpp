#pragma once

#include <cstdint>

#include "common/table.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "radio/profile.hpp"

namespace sixg::radio {

/// Energy-efficient network management — the paper's third named
/// future-work direction (Section VI). A gNB power model after the
/// standard base-station decomposition: static (always-on) power plus a
/// load-proportional PA term, with optional micro-sleep in empty slots
/// (the 6G lever: with 20 us slots, idle gaps are actually sleepable).
class GnbEnergyModel {
 public:
  struct Params {
    double static_watts = 780.0;  ///< rectifier, baseband, fans
    bool micro_sleep = false;     ///< sleep in unused slots?
    DataRate cell_peak_rate = DataRate::gbps(1);
  };

  explicit GnbEnergyModel(Params params) : params_(params) {}

  /// The two cells the energy study compares: a 5G macro cell (the
  /// Params defaults) and a 6G cell with denser integration (650 W
  /// static), micro-sleep and a 10x peak rate.
  [[nodiscard]] static GnbEnergyModel fiveg_macro();
  [[nodiscard]] static GnbEnergyModel sixg_micro_sleep();

  /// Average power draw at a given PRB load (0..1).
  [[nodiscard]] double average_watts(double load) const;

  /// Energy per delivered bit at the given load, in nanojoule/bit.
  [[nodiscard]] double nj_per_bit(double load) const;

  /// Daily energy for a diurnal load profile, kWh.
  [[nodiscard]] double daily_kwh(double mean_load,
                                 double peak_to_trough = 3.0) const;

  /// 5G-vs-6G comparison table across a load sweep.
  [[nodiscard]] static TextTable comparison_table();

 private:
  Params params_;
};

}  // namespace sixg::radio
