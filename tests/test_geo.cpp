#include <gtest/gtest.h>

#include "geo/coords.hpp"
#include "geo/gazetteer.hpp"
#include "geo/grid.hpp"
#include "geo/population.hpp"

namespace sixg::geo {
namespace {

// ---------------------------------------------------------------- coords

TEST(Coords, HaversineKnownDistances) {
  const auto& gaz = Gazetteer::central_europe();
  // Published city distances (great circle), tolerance 2 %.
  EXPECT_NEAR(gaz.distance_km("Klagenfurt", "Vienna"), 234.0, 5.0);
  EXPECT_NEAR(gaz.distance_km("Vienna", "Prague"), 252.0, 6.0);
  EXPECT_NEAR(gaz.distance_km("Prague", "Bucharest"), 1080.0, 25.0);
  EXPECT_NEAR(gaz.distance_km("Bucharest", "Vienna"), 855.0, 20.0);
}

TEST(Coords, DistanceIsAMetric) {
  const LatLon a{46.62, 14.31};
  const LatLon b{48.21, 16.37};
  const LatLon c{50.08, 14.44};
  EXPECT_DOUBLE_EQ(distance_km(a, a), 0.0);
  EXPECT_NEAR(distance_km(a, b), distance_km(b, a), 1e-9);
  EXPECT_LE(distance_km(a, c), distance_km(a, b) + distance_km(b, c) + 1e-9);
}

TEST(Coords, OffsetRoundTrip) {
  const LatLon origin{46.6, 14.3};
  for (double bearing : {0.0, 90.0, 180.0, 270.0, 45.0}) {
    const LatLon moved = offset(origin, 10.0, bearing);
    EXPECT_NEAR(distance_km(origin, moved), 10.0, 0.01);
  }
}

// SectorGrid::cell_center walks south (180) then east (90) with offset().
TEST(Coords, OffsetMovesAlongBearing) {
  const LatLon origin{46.6, 14.3};
  const LatLon north = offset(origin, 5.0, 0.0);
  EXPECT_GT(north.lat_deg, origin.lat_deg);
  EXPECT_NEAR(north.lon_deg, origin.lon_deg, 1e-9);
  const LatLon east = offset(origin, 5.0, 90.0);
  EXPECT_GT(east.lon_deg, origin.lon_deg);
  EXPECT_NEAR(east.lat_deg, origin.lat_deg, 1e-3);
  const LatLon south = offset(origin, 5.0, 180.0);
  EXPECT_LT(south.lat_deg, origin.lat_deg);
}

TEST(Coords, FiberDelayMagnitude) {
  // ~5 us/km: 200 km => ~1 ms one way.
  EXPECT_NEAR(fiber_delay_us(200.0), 980.0, 30.0);
}

// ---------------------------------------------------------------- grid

class GridLabelRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(GridLabelRoundTrip, LabelParseInverse) {
  const SectorGrid grid = SectorGrid::klagenfurt_sector();
  const CellIndex c = grid.unflat(GetParam());
  const auto parsed = grid.parse_label(grid.label(c));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, c);
}

INSTANTIATE_TEST_SUITE_P(AllCells, GridLabelRoundTrip,
                         ::testing::Range(0, 42));

TEST(Grid, KnownLabels) {
  const SectorGrid grid = SectorGrid::klagenfurt_sector();
  EXPECT_EQ(grid.label(CellIndex{0, 0}), "A1");
  EXPECT_EQ(grid.label(CellIndex{2, 0}), "C1");
  EXPECT_EQ(grid.label(CellIndex{5, 6}), "F7");
  EXPECT_EQ(grid.parse_label("E3"), (CellIndex{4, 2}));
}

TEST(Grid, ParseRejectsMalformed) {
  const SectorGrid grid = SectorGrid::klagenfurt_sector();
  EXPECT_FALSE(grid.parse_label("").has_value());
  EXPECT_FALSE(grid.parse_label("Z1").has_value());
  EXPECT_FALSE(grid.parse_label("A0").has_value());
  EXPECT_FALSE(grid.parse_label("A8").has_value());
  EXPECT_FALSE(grid.parse_label("AX").has_value());
  EXPECT_FALSE(grid.parse_label("3A").has_value());
}

TEST(Grid, CellCenterLocateRoundTrip) {
  const SectorGrid grid = SectorGrid::klagenfurt_sector();
  for (const CellIndex c : grid.all_cells()) {
    const auto located = grid.locate(grid.cell_center(c));
    ASSERT_TRUE(located.has_value()) << grid.label(c);
    EXPECT_EQ(*located, c) << grid.label(c);
  }
}

TEST(Grid, LocateOutsideReturnsNullopt) {
  const SectorGrid grid = SectorGrid::klagenfurt_sector();
  EXPECT_FALSE(grid.locate(LatLon{48.2, 16.4}).has_value());  // Vienna
  EXPECT_FALSE(grid.locate(LatLon{46.99, 14.3}).has_value());  // north of it
}

TEST(Grid, CellGeometry) {
  const SectorGrid grid = SectorGrid::klagenfurt_sector();
  EXPECT_EQ(grid.rows(), 6);
  EXPECT_EQ(grid.cols(), 7);
  EXPECT_EQ(grid.cell_count(), 42);
  // Adjacent cell centres are one cell size apart.
  const double d = distance_km(grid.cell_center(CellIndex{2, 2}),
                               grid.cell_center(CellIndex{2, 3}));
  EXPECT_NEAR(d, grid.cell_size_km(), 0.02);
}

TEST(Grid, FlatUnflatRoundTrip) {
  const SectorGrid grid = SectorGrid::klagenfurt_sector();
  for (int i = 0; i < grid.cell_count(); ++i)
    EXPECT_EQ(grid.flat(grid.unflat(i)), i);
}

// ---------------------------------------------------------------- population

TEST(Population, CityCoreIsDensest) {
  const SectorGrid grid = SectorGrid::klagenfurt_sector();
  const PopulationRaster pop = PopulationRaster::klagenfurt(grid);
  const double core = pop.density(CellIndex{3, 3});
  for (const CellIndex c : grid.all_cells()) {
    if (c == CellIndex{3, 3}) continue;
    EXPECT_LE(pop.density(c), core * 1.05) << grid.label(c);
  }
}

TEST(Population, CornersAreSparse) {
  const SectorGrid grid = SectorGrid::klagenfurt_sector();
  const PopulationRaster pop = PopulationRaster::klagenfurt(grid);
  EXPECT_TRUE(pop.sparse(CellIndex{0, 6}));  // A7
  EXPECT_TRUE(pop.sparse(CellIndex{5, 6}));  // F7
  EXPECT_FALSE(pop.sparse(CellIndex{3, 3}));  // D4 core
}

TEST(Population, WestCorridorSupportsC1) {
  // The paper's Fig. 2 reports a valid value at C1, so the cell must be
  // above the 1000 /km^2 under-sampling criterion.
  const SectorGrid grid = SectorGrid::klagenfurt_sector();
  const PopulationRaster pop = PopulationRaster::klagenfurt(grid);
  EXPECT_FALSE(pop.sparse(*grid.parse_label("C1")));
  EXPECT_FALSE(pop.sparse(*grid.parse_label("C2")));
}

TEST(Population, Deterministic) {
  const SectorGrid grid = SectorGrid::klagenfurt_sector();
  const PopulationRaster a = PopulationRaster::klagenfurt(grid);
  const PopulationRaster b = PopulationRaster::klagenfurt(grid);
  for (const CellIndex c : grid.all_cells())
    EXPECT_DOUBLE_EQ(a.density(c), b.density(c));
}

TEST(Population, TotalPopulationPlausible) {
  // Klagenfurt has ~100k inhabitants; a 42 km^2 urban sector should hold
  // a meaningful fraction of that.
  const SectorGrid grid = SectorGrid::klagenfurt_sector();
  const PopulationRaster pop = PopulationRaster::klagenfurt(grid);
  EXPECT_GT(pop.total_population(), 30000.0);
  EXPECT_LT(pop.total_population(), 200000.0);
}

// ---------------------------------------------------------------- gazetteer

TEST(Gazetteer, FindsPaperCities) {
  const auto& gaz = Gazetteer::central_europe();
  for (const char* name :
       {"Klagenfurt", "Vienna", "Prague", "Bucharest", "Graz", "Skopje"}) {
    EXPECT_TRUE(gaz.find(name).has_value()) << name;
  }
  EXPECT_FALSE(gaz.find("Atlantis").has_value());
}

TEST(Gazetteer, CountryCodes) {
  const auto& gaz = Gazetteer::central_europe();
  EXPECT_EQ(gaz.find("Klagenfurt")->country_code, "AT");
  EXPECT_EQ(gaz.find("Prague")->country_code, "CZ");
  EXPECT_EQ(gaz.find("Bucharest")->country_code, "RO");
  EXPECT_EQ(gaz.find("Skopje")->country_code, "MK");
}

}  // namespace
}  // namespace sixg::geo
