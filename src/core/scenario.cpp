#include "core/scenario.hpp"

#include "measurement/ping.hpp"

namespace sixg::core {

KlagenfurtStudy::KlagenfurtStudy(const Options& options)
    : grid_(geo::SectorGrid::klagenfurt_sector()),
      population_(geo::PopulationRaster::klagenfurt(grid_)),
      rem_(radio::RadioEnvironmentMap::klagenfurt(grid_, population_)),
      europe_(topo::build_europe(options.europe)) {}

meas::GridCampaign KlagenfurtStudy::campaign(
    const radio::AccessProfile& profile, std::uint64_t seed) const {
  return meas::GridCampaign{grid_,
                            population_,
                            rem_,
                            europe_.net,
                            europe_.mobile_ue,
                            europe_.university_probe,
                            profile,
                            meas::GridCampaign::Config{.seed = seed}};
}

stats::Summary KlagenfurtStudy::wired_baseline(std::uint32_t samples,
                                               std::uint64_t seed) const {
  const meas::PingMeasurement wired{europe_.net, europe_.wired_host,
                                    europe_.university_probe};
  Rng rng{seed};
  return wired.run(samples, rng).summary_ms;
}

}  // namespace sixg::core
