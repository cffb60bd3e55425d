#include "geo/population.hpp"

#include <array>
#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace sixg::geo {
namespace {

/// One radially decaying density contribution.
struct Center {
  CellIndex cell;
  double peak_density;  ///< inhabitants per km^2 at the centre
  double decay_per_km;  ///< exponential falloff rate
};

constexpr std::array kCenters{
    Center{CellIndex{3, 3}, 4300.0, 0.62},  // D4: city core
    Center{CellIndex{2, 1}, 2600.0, 0.70},  // C2: west residential corridor
};
constexpr double kFloorDensity = 150.0;  ///< rural background density
/// Lognormal cell-to-cell texture, seeded so the published grid is stable.
constexpr std::uint64_t kNoiseSeed = 0x6b6c55u;
constexpr double kNoiseSigma = 0.15;
static_assert(!kCenters.empty(), "at least one centre required");

}  // namespace

PopulationRaster::PopulationRaster(const SectorGrid& grid) : grid_(&grid) {
  for (const Center& center : kCenters)
    SIXG_ASSERT(grid.contains(center.cell), "centre must lie in the grid");
  density_.resize(std::size_t(grid.cell_count()));
  Rng rng{kNoiseSeed};
  for (const CellIndex c : grid.all_cells()) {
    double radial = 0.0;
    for (const Center& center : kCenters) {
      const double d_km =
          distance_km(grid.cell_center(c), grid.cell_center(center.cell));
      radial += center.peak_density * std::exp(-center.decay_per_km * d_km);
    }
    // Deterministic per-cell texture so adjacent cells differ like real
    // census rasters do.
    const double noise =
        std::exp(kNoiseSigma * (2.0 * rng.uniform() - 1.0));
    density_[std::size_t(grid.flat(c))] =
        std::max(kFloorDensity, radial * noise);
  }
}

PopulationRaster PopulationRaster::klagenfurt(const SectorGrid& grid) {
  return PopulationRaster{grid};
}

double PopulationRaster::density(CellIndex c) const {
  SIXG_ASSERT(grid_->contains(c), "cell outside grid");
  return density_[std::size_t(grid_->flat(c))];
}

double PopulationRaster::total_population() const {
  const double cell_area =
      grid_->cell_size_km() * grid_->cell_size_km();
  double total = 0.0;
  for (double d : density_) total += d * cell_area;
  return total;
}

}  // namespace sixg::geo
