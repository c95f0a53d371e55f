// ASCII table rendering for the benchmark harness.
//
// Every bench prints the paper's table rows next to the measured values, so
// a human can eyeball paper-vs-reproduction without post-processing. Table
// collects cells as strings and right-pads columns on render.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace mlqr {

/// Column-aligned ASCII table with an optional title and column headers.
class Table {
 public:
  explicit Table(std::string title = {}) : title_(std::move(title)) {}

  /// Sets the header row. Must be called before rows are rendered.
  void set_header(std::vector<std::string> header);

  /// Appends a row; shorter rows are padded with empty cells on render.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats a double with the given precision.
  static std::string num(double v, int precision = 4);

  /// Convenience: formats a percentage ("12.3%").
  static std::string pct(double fraction, int precision = 1);

  /// Renders the table to the stream (with separators).
  void render(std::ostream& os) const;

  /// Renders to stdout.
  void print() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mlqr
