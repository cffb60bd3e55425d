// Reproduces the paper's Klagenfurt drive-test campaign end to end:
// builds the central-European topology, synthesises drive traces over the
// 6x7 sector grid, measures per-cell RTL through the 5G access and the
// carrier's detoured Internet path, and prints the Fig. 1/2/3 grids.
//
// Usage: measurement_campaign [seed]

#include <cstdio>
#include <cstdlib>

#include "geo/grid.hpp"
#include "geo/population.hpp"
#include "measurement/grid_campaign.hpp"
#include "netsim/parallel.hpp"
#include "radio/conditions.hpp"
#include "radio/profile.hpp"
#include "topo/europe.hpp"

int main(int argc, char** argv) {
  using namespace sixg;

  const auto grid = geo::SectorGrid::klagenfurt_sector();
  const auto population = geo::PopulationRaster::klagenfurt(grid);
  const auto rem = radio::RadioEnvironmentMap::klagenfurt(grid, population);
  const auto europe = topo::build_europe();

  meas::GridCampaign::Config config;
  if (argc > 1) config.seed = std::strtoull(argv[1], nullptr, 10);

  const meas::GridCampaign campaign{
      grid,          population,
      rem,           europe.net,
      europe.mobile_ue, europe.university_probe,
      radio::AccessProfile::fiveg_nsa(), config};

  const netsim::ParallelRunner runner;
  const meas::GridReport report = campaign.run(runner);

  std::printf("Measurement counts per cell ('-' = not traversed):\n%s\n",
              report.count_table().str().c_str());
  std::printf("Mean round-trip latency per cell, ms (0.0 = <%u samples):\n%s\n",
              meas::GridReport::kMinSamples, report.mean_table().str().c_str());
  std::printf("Std deviation per cell, ms:\n%s\n",
              report.stddev_table().str().c_str());

  const auto min_mean = report.min_mean();
  const auto max_mean = report.max_mean();
  const auto min_sd = report.min_stddev();
  const auto max_sd = report.max_stddev();
  std::printf("traversed cells: %d of %d, suppressed (<%u samples): %d\n",
              report.traversed_count(), grid.cell_count(),
              meas::GridReport::kMinSamples, report.suppressed_count());
  std::printf("mean RTL range: %.1f ms (%s) .. %.1f ms (%s)\n", min_mean.value,
              min_mean.label.c_str(), max_mean.value, max_mean.label.c_str());
  std::printf("stddev range:  %.1f ms (%s) .. %.1f ms (%s)\n", min_sd.value,
              min_sd.label.c_str(), max_sd.value, max_sd.label.c_str());
  return 0;
}
