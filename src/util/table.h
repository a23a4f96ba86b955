// Plain-text table rendering for the experiment harnesses.
//
// Every bench binary prints the rows/series of the paper figure or table it
// regenerates; TextTable keeps that output aligned and diffable.

#ifndef SRC_UTIL_TABLE_H_
#define SRC_UTIL_TABLE_H_

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace lottery {

// Column-aligned text table. Usage:
//   TextTable t({"ratio", "observed", "error"});
//   t.AddRow({"2:1", "2.03", "1.5%"});
//   t.Print(std::cout);
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void AddRow(std::vector<std::string> cells);

  size_t num_rows() const { return rows_.size(); }
  void Print(std::ostream& out) const;
  std::string ToString() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double with `digits` places after the decimal point.
std::string FormatDouble(double value, int digits = 2);

// Formats a ratio like "2.97 : 1" from parts normalized by the last part.
std::string FormatRatio(const std::vector<double>& parts, int digits = 2);

}  // namespace lottery

#endif  // SRC_UTIL_TABLE_H_
