/// @file scenario.hpp — the calibrated Klagenfurt case study: grid, census,
/// radio environment, topology and the drive-test campaign over them.
#pragma once

#include <memory>

#include "geo/grid.hpp"
#include "geo/population.hpp"
#include "measurement/grid_campaign.hpp"
#include "radio/conditions.hpp"
#include "radio/profile.hpp"
#include "topo/europe.hpp"

namespace sixg::core {

/// The complete Klagenfurt case study in one object: grid, census, radio
/// environment, Internet topology and the drive-test campaign over them.
/// The paper scenarios construct this so every figure/table draws from
/// the same calibrated world.
class KlagenfurtStudy {
 public:
  struct Options {
    topo::EuropeOptions europe;  ///< defaults: no breakout, no peering
  };

  KlagenfurtStudy() : KlagenfurtStudy(Options{}) {}
  explicit KlagenfurtStudy(const Options& options);

  [[nodiscard]] const geo::SectorGrid& grid() const { return grid_; }
  [[nodiscard]] const geo::PopulationRaster& population() const {
    return population_;
  }
  [[nodiscard]] const radio::RadioEnvironmentMap& rem() const { return rem_; }
  [[nodiscard]] const topo::EuropeTopology& europe() const { return europe_; }

  /// The paper's measured access technology.
  [[nodiscard]] radio::AccessProfile access_profile() const {
    return radio::AccessProfile::fiveg_nsa();
  }

  /// The drive-test campaign over this world: the mobile UE pings the
  /// university probe under `profile` along drives seeded from `seed`.
  /// Every grid scenario builds its campaign here.
  [[nodiscard]] meas::GridCampaign campaign(
      const radio::AccessProfile& profile, std::uint64_t seed) const;

  /// Wired-population baseline: residential host -> probe RTT summary.
  [[nodiscard]] stats::Summary wired_baseline(std::uint32_t samples = 2000,
                                              std::uint64_t seed = 77) const;

 private:
  geo::SectorGrid grid_;
  geo::PopulationRaster population_;
  radio::RadioEnvironmentMap rem_;
  topo::EuropeTopology europe_;
};

}  // namespace sixg::core
