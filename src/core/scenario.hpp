/// @file scenario.hpp — the calibrated Klagenfurt case study: grid, census,
/// radio environment, topology and the canonical campaign configuration.
#pragma once

#include <memory>

#include "geo/grid.hpp"
#include "geo/population.hpp"
#include "measurement/grid_campaign.hpp"
#include "netsim/parallel.hpp"
#include "radio/conditions.hpp"
#include "radio/profile.hpp"
#include "topo/europe.hpp"

namespace sixg::core {

/// The complete Klagenfurt case study in one object: grid, census, radio
/// environment, Internet topology and the canonical campaign config.
/// The paper scenarios construct this so every figure/table draws from
/// the same calibrated world.
class KlagenfurtStudy {
 public:
  struct Options {
    topo::EuropeOptions europe;  ///< defaults: no breakout, no peering
    meas::GridCampaign::Config campaign;
  };

  KlagenfurtStudy() : KlagenfurtStudy(Options{}) {}
  explicit KlagenfurtStudy(const Options& options);

  [[nodiscard]] const geo::SectorGrid& grid() const { return grid_; }
  [[nodiscard]] const geo::PopulationRaster& population() const {
    return population_;
  }
  [[nodiscard]] const radio::RadioEnvironmentMap& rem() const { return rem_; }
  [[nodiscard]] const topo::EuropeTopology& europe() const { return europe_; }
  [[nodiscard]] const meas::GridCampaign::Config& campaign_config() const {
    return options_.campaign;
  }

  /// The paper's measured access technology.
  [[nodiscard]] radio::AccessProfile access_profile() const {
    return radio::AccessProfile::fiveg_nsa();
  }

  /// Run the full drive-test campaign (parallel over cells).
  [[nodiscard]] meas::GridReport run_campaign() const;

  /// Wired-population baseline: residential host -> probe RTT summary.
  [[nodiscard]] stats::Summary wired_baseline(std::uint32_t samples = 2000,
                                              std::uint64_t seed = 77) const;

 private:
  Options options_;
  geo::SectorGrid grid_;
  geo::PopulationRaster population_;
  radio::RadioEnvironmentMap rem_;
  topo::EuropeTopology europe_;
};

}  // namespace sixg::core
