#include "mobility/drive_plan.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/assert.hpp"

namespace sixg::mobility {
namespace {

constexpr double kSpeedKmhMin = 18.0;     ///< urban crawl
constexpr double kSpeedKmhMax = 50.0;     ///< urban limit
constexpr double kStopProbability = 0.4;  ///< traffic light / congestion stop
constexpr Duration kStopMin = Duration::seconds(10);
constexpr Duration kStopMax = Duration::seconds(90);
/// Neighbour-cell selection weight is density^bias; higher bias makes
/// the walk hug the urban core harder.
constexpr double kDensityBias = 1.3;
/// Cells below this density carry no through-roads for the walk
/// (corner cells of the sector are farmland/forest).
constexpr double kMinDrivableDensity = 200.0;

}  // namespace

DrivePlan DrivePlan::manhattan(const geo::SectorGrid& grid,
                               const geo::PopulationRaster& pop,
                               std::uint64_t seed) {
  DrivePlan plan;
  Rng rng{seed};

  // Start at the densest drivable cell (the city core — where the drives
  // in the paper naturally begin).
  geo::CellIndex current{0, 0};
  double best = -1.0;
  for (const geo::CellIndex c : grid.all_cells()) {
    if (pop.density(c) > best) {
      best = pop.density(c);
      current = c;
    }
  }
  SIXG_ASSERT(best >= kMinDrivableDensity, "no drivable cell in the sector");

  TimePoint clock;
  const TimePoint end = TimePoint{} + kTotalDuration;
  while (clock < end) {
    // Dwell: cross the cell at urban speed, possibly held up by lights.
    const double speed = rng.uniform(kSpeedKmhMin, kSpeedKmhMax);
    Duration dwell =
        Duration::from_seconds_f(grid.cell_size_km() / speed * 3600.0);
    if (rng.chance(kStopProbability)) {
      const double extra =
          rng.uniform(double(kStopMin.ns()), double(kStopMax.ns()));
      dwell += Duration::nanos(std::int64_t(extra));
    }
    plan.visits_.push_back(CellVisit{current, clock, dwell});
    clock = clock + dwell;

    // Pick the next cell among Manhattan neighbours, weighted by density.
    static constexpr std::array<std::pair<int, int>, 4> kMoves{
        {{-1, 0}, {1, 0}, {0, -1}, {0, 1}}};
    std::array<double, 4> weight{};
    double total_weight = 0.0;
    for (std::size_t m = 0; m < kMoves.size(); ++m) {
      const geo::CellIndex next{current.row + kMoves[m].first,
                                current.col + kMoves[m].second};
      if (!grid.contains(next)) continue;
      const double d = pop.density(next);
      if (d < kMinDrivableDensity) continue;
      weight[m] = std::pow(d, kDensityBias);
      total_weight += weight[m];
    }
    if (total_weight <= 0.0) break;  // boxed in (cannot happen on real maps)
    double pick = rng.uniform() * total_weight;
    for (std::size_t m = 0; m < kMoves.size(); ++m) {
      pick -= weight[m];
      if (pick <= 0.0 && weight[m] > 0.0) {
        current = geo::CellIndex{current.row + kMoves[m].first,
                                 current.col + kMoves[m].second};
        break;
      }
    }
  }
  plan.total_ = clock - TimePoint{};
  return plan;
}

std::vector<Duration> DrivePlan::dwell_per_cell(
    const geo::SectorGrid& grid) const {
  std::vector<Duration> dwell(std::size_t(grid.cell_count()));
  for (const CellVisit& v : visits_)
    dwell[std::size_t(grid.flat(v.cell))] += v.dwell;
  return dwell;
}

int DrivePlan::traversed_cell_count(const geo::SectorGrid& grid) const {
  std::vector<bool> seen(std::size_t(grid.cell_count()), false);
  for (const CellVisit& v : visits_) seen[std::size_t(grid.flat(v.cell))] = true;
  return int(std::count(seen.begin(), seen.end(), true));
}

}  // namespace sixg::mobility
