#pragma once

#include <vector>

#include "geo/grid.hpp"

namespace sixg::geo {

/// Synthetic population-density raster over a SectorGrid.
///
/// Substitutes for the Statistik Austria "Absolute Population Density"
/// raster the paper aligns its measurements with [18]. Only one property of
/// that dataset matters to the study: border cells of the evaluation sector
/// fall below 1000 inhabitants/km^2 and therefore yield fewer than ten
/// measurements (rendered as 0.0 in Fig. 2/3). We reproduce that mechanism
/// with a radial urban-density model around two centres.
class PopulationRaster {
 public:
  /// Klagenfurt-like raster: dense core around the D4/D5 area, university
  /// district elevated, sparse border strip (< 1000 /km^2).
  [[nodiscard]] static PopulationRaster klagenfurt(const SectorGrid& grid);

  [[nodiscard]] double density(CellIndex c) const;

  /// The paper's under-sampling criterion (Section IV-C).
  [[nodiscard]] bool sparse(CellIndex c) const { return density(c) < 1000.0; }

  /// Total population of the sector (density * cell area summed).
  [[nodiscard]] double total_population() const;

 private:
  explicit PopulationRaster(const SectorGrid& grid);

  const SectorGrid* grid_;
  std::vector<double> density_;  // row-major, cell_count() entries
};

}  // namespace sixg::geo
