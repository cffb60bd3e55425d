#include "common/table.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"

namespace sixg {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)), align_(header_.size(), Align::kRight) {
  SIXG_ASSERT(!header_.empty(), "table needs at least one column");
  align_[0] = Align::kLeft;
}

void TextTable::add_row(std::vector<std::string> cells) {
  SIXG_ASSERT(cells.size() == header_.size(),
              "row width must match header width");
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string TextTable::integer(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  return buf;
}

void TextTable::set_align(std::size_t column, Align align) {
  SIXG_ASSERT(column < align_.size(), "column out of range");
  align_[column] = align;
}

void TextTable::to(std::string& out) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::size_t line_width = 2;  // '+' or '|' plus the trailing newline
  for (const std::size_t w : width) line_width += w + 3;
  out.reserve(out.size() + line_width * (rows_.size() + 4));

  auto emit_row = [&](const std::vector<std::string>& cells) {
    out += '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::string& cell = cells[c];
      const std::size_t pad = width[c] - cell.size();
      out += ' ';
      if (align_[c] == Align::kRight) out.append(pad, ' ');
      out += cell;
      if (align_[c] == Align::kLeft) out.append(pad, ' ');
      out += " |";
    }
    out += '\n';
  };
  auto emit_sep = [&] {
    out += '+';
    for (std::size_t c = 0; c < width.size(); ++c) {
      out.append(width[c] + 2, '-');
      out += '+';
    }
    out += '\n';
  };

  emit_sep();
  emit_row(header_);
  emit_sep();
  for (const auto& row : rows_) emit_row(row);
  emit_sep();
}

std::string TextTable::str() const {
  std::string out;
  to(out);
  return out;
}

}  // namespace sixg
