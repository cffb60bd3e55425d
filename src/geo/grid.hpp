#pragma once

#include <optional>
#include <string>
#include <vector>

#include "geo/coords.hpp"

namespace sixg::geo {

/// Index of one cell inside a SectorGrid: row 0 = 'A' (northernmost),
/// col 0 = '1' (westernmost). Matches the paper's "A1".."F7" labels.
struct CellIndex {
  int row = 0;
  int col = 0;

  friend constexpr bool operator==(const CellIndex&, const CellIndex&) =
      default;
  friend constexpr auto operator<=>(const CellIndex&, const CellIndex&) =
      default;
};

/// Geographical partitioning of an urban sector into square cells, after
/// the methodology of Maeda et al. applied in the paper (Section IV-B):
/// 1 km cells labelled by row letter and column number.
class SectorGrid {
 public:
  /// `origin` is the north-west corner; rows extend south, columns east.
  SectorGrid(LatLon origin, int rows, int cols, double cell_size_km);

  /// The Klagenfurt evaluation sector from the paper: 6 rows (A-F) by
  /// 7 columns (1-7) of 1 km cells anchored just north-west of the city.
  [[nodiscard]] static SectorGrid klagenfurt_sector();

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int cell_count() const { return rows_ * cols_; }
  [[nodiscard]] double cell_size_km() const { return cell_size_km_; }
  [[nodiscard]] LatLon origin() const { return origin_; }

  [[nodiscard]] bool contains(CellIndex c) const {
    return c.row >= 0 && c.row < rows_ && c.col >= 0 && c.col < cols_;
  }

  /// "A1" style label. Precondition: contains(c).
  [[nodiscard]] std::string label(CellIndex c) const;

  /// Parse "C3" style labels; nullopt when malformed or out of range.
  [[nodiscard]] std::optional<CellIndex> parse_label(
      const std::string& label) const;

  /// Geographic centre of a cell.
  [[nodiscard]] LatLon cell_center(CellIndex c) const;

  /// Cell containing `pos`, or nullopt if outside the sector.
  [[nodiscard]] std::optional<CellIndex> locate(const LatLon& pos) const;

  /// Flattened index (row-major), for arrays sized cell_count().
  [[nodiscard]] int flat(CellIndex c) const { return c.row * cols_ + c.col; }
  [[nodiscard]] CellIndex unflat(int i) const {
    return CellIndex{i / cols_, i % cols_};
  }

  /// All cells in row-major order.
  [[nodiscard]] std::vector<CellIndex> all_cells() const;

 private:
  LatLon origin_;
  int rows_;
  int cols_;
  double cell_size_km_;
};

}  // namespace sixg::geo
