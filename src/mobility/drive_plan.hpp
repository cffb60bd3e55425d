#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "geo/grid.hpp"
#include "geo/population.hpp"

namespace sixg::mobility {

/// One stay of a mobile node inside one grid cell.
struct CellVisit {
  geo::CellIndex cell;
  TimePoint enter;
  Duration dwell;
};

/// A cell-granular drive trace over the evaluation sector: the synthetic
/// counterpart of the paper's measurement drives through Klagenfurt
/// (Section IV-B). The walk follows the street grid (Manhattan moves),
/// biased towards populated cells — drivers keep to urban roads — which
/// reproduces the paper's observation that measurement counts per cell
/// vary with traffic flow and that sparse border cells stay under-sampled.
class DrivePlan {
 public:
  /// Drive length; the walk ends with the visit that crosses it.
  static constexpr Duration kTotalDuration = Duration::seconds(3 * 3600);

  /// Generate a plan with a walk starting at the densest drivable cell.
  [[nodiscard]] static DrivePlan manhattan(const geo::SectorGrid& grid,
                                           const geo::PopulationRaster& pop,
                                           std::uint64_t seed);

  [[nodiscard]] const std::vector<CellVisit>& visits() const {
    return visits_;
  }
  [[nodiscard]] Duration total_duration() const { return total_; }

  /// Aggregate dwell time per cell (row-major, grid.cell_count() entries).
  [[nodiscard]] std::vector<Duration> dwell_per_cell(
      const geo::SectorGrid& grid) const;

  /// Number of distinct cells entered at least once.
  [[nodiscard]] int traversed_cell_count(const geo::SectorGrid& grid) const;

 private:
  std::vector<CellVisit> visits_;
  Duration total_;
};

}  // namespace sixg::mobility
