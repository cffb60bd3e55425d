#include "geo/grid.hpp"

#include <cctype>

#include "common/assert.hpp"

namespace sixg::geo {

SectorGrid::SectorGrid(LatLon origin, int rows, int cols, double cell_size_km)
    : origin_(origin), rows_(rows), cols_(cols), cell_size_km_(cell_size_km) {
  SIXG_ASSERT(rows > 0 && cols > 0, "grid must be non-empty");
  SIXG_ASSERT(rows <= 26, "row labels are single letters A..Z");
  SIXG_ASSERT(cell_size_km > 0.0, "cell size must be positive");
}

SectorGrid SectorGrid::klagenfurt_sector() {
  // NW corner chosen so the 6 x 7 km sector covers the urban residential
  // areas around the University of Klagenfurt (paper Section IV-B).
  return SectorGrid{LatLon{46.6520, 14.2650}, /*rows=*/6, /*cols=*/7,
                    /*cell_size_km=*/1.0};
}

std::string SectorGrid::label(CellIndex c) const {
  SIXG_ASSERT(contains(c), "cell outside grid");
  std::string out;
  out.push_back(char('A' + c.row));
  out += std::to_string(c.col + 1);
  return out;
}

std::optional<CellIndex> SectorGrid::parse_label(
    const std::string& label) const {
  if (label.size() < 2) return std::nullopt;
  const char r = char(std::toupper(static_cast<unsigned char>(label[0])));
  if (r < 'A' || r >= 'A' + rows_) return std::nullopt;
  int col = 0;
  for (std::size_t i = 1; i < label.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(label[i])))
      return std::nullopt;
    col = col * 10 + (label[i] - '0');
  }
  if (col < 1 || col > cols_) return std::nullopt;
  return CellIndex{r - 'A', col - 1};
}

LatLon SectorGrid::cell_center(CellIndex c) const {
  SIXG_ASSERT(contains(c), "cell outside grid");
  const double south_km = (double(c.row) + 0.5) * cell_size_km_;
  const double east_km = (double(c.col) + 0.5) * cell_size_km_;
  const LatLon down = offset(origin_, south_km, 180.0);
  return offset(down, east_km, 90.0);
}

std::optional<CellIndex> SectorGrid::locate(const LatLon& pos) const {
  // Project into the grid frame via bearings from origin. For the small
  // sectors we model (a few km), the equirectangular frame is exact enough.
  const double north_south = distance_km(
      LatLon{origin_.lat_deg, pos.lon_deg}, LatLon{pos.lat_deg, pos.lon_deg});
  const double east_west = distance_km(
      LatLon{pos.lat_deg, origin_.lon_deg}, LatLon{pos.lat_deg, pos.lon_deg});
  const bool south = pos.lat_deg <= origin_.lat_deg;
  const bool east = pos.lon_deg >= origin_.lon_deg;
  if (!south || !east) return std::nullopt;
  const int row = int(north_south / cell_size_km_);
  const int col = int(east_west / cell_size_km_);
  const CellIndex c{row, col};
  if (!contains(c)) return std::nullopt;
  return c;
}

std::vector<CellIndex> SectorGrid::all_cells() const {
  std::vector<CellIndex> cells;
  cells.reserve(std::size_t(cell_count()));
  for (int r = 0; r < rows_; ++r)
    for (int c = 0; c < cols_; ++c) cells.push_back(CellIndex{r, c});
  return cells;
}

}  // namespace sixg::geo
