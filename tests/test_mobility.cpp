#include <gtest/gtest.h>

#include <cmath>

#include "geo/grid.hpp"
#include "geo/population.hpp"
#include "mobility/drive_plan.hpp"

namespace sixg::mobility {
namespace {

class DrivePlanFixture : public ::testing::Test {
 protected:
  DrivePlanFixture()
      : grid_(geo::SectorGrid::klagenfurt_sector()),
        pop_(geo::PopulationRaster::klagenfurt(grid_)) {}

  DrivePlan make(std::uint64_t seed) const {
    return DrivePlan::manhattan(grid_, pop_, seed);
  }

  geo::SectorGrid grid_;
  geo::PopulationRaster pop_;
};

TEST_F(DrivePlanFixture, VisitsAreContiguousManhattanMoves) {
  const DrivePlan plan = make(1);
  ASSERT_GT(plan.visits().size(), 10u);
  for (std::size_t i = 1; i < plan.visits().size(); ++i) {
    const auto& prev = plan.visits()[i - 1].cell;
    const auto& next = plan.visits()[i].cell;
    const int manhattan =
        std::abs(prev.row - next.row) + std::abs(prev.col - next.col);
    EXPECT_EQ(manhattan, 1) << "visit " << i;
  }
}

TEST_F(DrivePlanFixture, VisitsStayInsideGrid) {
  const DrivePlan plan = make(2);
  for (const CellVisit& v : plan.visits())
    EXPECT_TRUE(grid_.contains(v.cell));
}

TEST_F(DrivePlanFixture, TimestampsAreContiguous) {
  const DrivePlan plan = make(3);
  TimePoint clock;
  for (const CellVisit& v : plan.visits()) {
    EXPECT_EQ(v.enter.ns(), clock.ns());
    EXPECT_GT(v.dwell.ns(), 0);
    clock = clock + v.dwell;
  }
  EXPECT_EQ(plan.total_duration().ns(), (clock - TimePoint{}).ns());
}

TEST_F(DrivePlanFixture, DwellTimesArePhysical) {
  // 1 km at 18-50 km/h is 72-200 s; stops add at most 90 s.
  const DrivePlan plan = make(4);
  for (const CellVisit& v : plan.visits()) {
    EXPECT_GE(v.dwell.sec(), 1000.0 * 3.6 / 50.0 / 1000.0 * 0.99);
    EXPECT_LE(v.dwell.sec(), 200.0 + 90.0 + 1.0);
  }
}

TEST_F(DrivePlanFixture, DeterministicPerSeed) {
  const DrivePlan a = make(5);
  const DrivePlan b = make(5);
  ASSERT_EQ(a.visits().size(), b.visits().size());
  for (std::size_t i = 0; i < a.visits().size(); ++i) {
    EXPECT_EQ(a.visits()[i].cell, b.visits()[i].cell);
    EXPECT_EQ(a.visits()[i].dwell.ns(), b.visits()[i].dwell.ns());
  }
}

TEST_F(DrivePlanFixture, DifferentSeedsDiverge) {
  const DrivePlan a = make(6);
  const DrivePlan b = make(7);
  bool differs = a.visits().size() != b.visits().size();
  for (std::size_t i = 0; !differs && i < a.visits().size(); ++i)
    differs = !(a.visits()[i].cell == b.visits()[i].cell);
  EXPECT_TRUE(differs);
}

TEST_F(DrivePlanFixture, DenseCoreVisitedMoreThanSparseBorder) {
  const DrivePlan plan = make(8);
  const auto dwell = plan.dwell_per_cell(grid_);
  const auto core = std::size_t(grid_.flat(geo::CellIndex{3, 3}));   // D4
  const auto corner = std::size_t(grid_.flat(geo::CellIndex{0, 6}));  // A7
  EXPECT_GT(dwell[core].ns(), dwell[corner].ns());
  EXPECT_EQ(dwell[corner].ns(), 0);  // farmland corner never driven
}

TEST_F(DrivePlanFixture, TraversedCountMatchesPaperScale) {
  // Six nodes together traverse ~33 of 42 cells; one node alone fewer.
  const DrivePlan plan = make(9);
  const int traversed = plan.traversed_cell_count(grid_);
  EXPECT_GE(traversed, 10);
  EXPECT_LE(traversed, 42);
}

TEST_F(DrivePlanFixture, RespectsTotalDuration) {
  const DrivePlan plan = make(10);
  // The walk stops at the first visit that crosses the horizon.
  const double horizon_s = DrivePlan::kTotalDuration.sec();
  EXPECT_GE(plan.total_duration().sec(), horizon_s);
  EXPECT_LT(plan.total_duration().sec(), horizon_s + 300.0);
}

}  // namespace
}  // namespace sixg::mobility
