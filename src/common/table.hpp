#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sixg {

/// Column-aligned text table used by the benchmark harnesses to print the
/// rows the paper reports (figures as grids, tables as hop lists).
class TextTable {
 public:
  enum class Align : std::uint8_t { kLeft, kRight };

  explicit TextTable(std::vector<std::string> header);

  /// Append one row; must have exactly as many cells as the header.
  void add_row(std::vector<std::string> cells);

  /// Convenience cell formatting helpers.
  [[nodiscard]] static std::string num(double v, int precision = 2);
  [[nodiscard]] static std::string integer(std::int64_t v);

  void set_align(std::size_t column, Align align);

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& row(std::size_t i) const {
    return rows_.at(i);
  }
  [[nodiscard]] const std::vector<std::string>& header() const {
    return header_;
  }

  /// Render with box-drawing separators.
  [[nodiscard]] std::string str() const;
  /// Append the str() rendering to `out`: one growing buffer, no
  /// per-cell temporary strings — what the scenario render loop uses.
  void to(std::string& out) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<Align> align_;
};

}  // namespace sixg
