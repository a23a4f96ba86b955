#include "src/util/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace lottery {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  if (header_.empty()) {
    throw std::invalid_argument("TextTable: empty header");
  }
}

void TextTable::AddRow(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("TextTable: row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

void TextTable::Print(std::ostream& out) const { out << ToString(); }

std::string TextTable::ToString() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "" : "  ") << std::left
          << std::setw(static_cast<int>(widths[c])) << row[c];
    }
    out << "\n";
  };
  emit_row(header_);
  size_t total = header_.size() - 1;
  for (const size_t w : widths) {
    total += w + 1;
  }
  out << std::string(total, '-') << "\n";
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out.str();
}

std::string FormatDouble(double value, int digits) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(digits) << value;
  return out.str();
}

std::string FormatRatio(const std::vector<double>& parts, int digits) {
  if (parts.empty()) {
    return "";
  }
  const double base = parts.back() != 0.0 ? parts.back() : 1.0;
  std::ostringstream out;
  for (size_t i = 0; i < parts.size(); ++i) {
    out << (i == 0 ? "" : " : ") << FormatDouble(parts[i] / base, digits);
  }
  return out.str();
}

}  // namespace lottery
