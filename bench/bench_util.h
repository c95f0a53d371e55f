// The machine-readable BENCH_*.json records the benches write: the paper
// reproduction driver (BENCH_paper.json) and the streaming soaks.
// Performance itself is measured by perfbench/, not here.
#pragma once

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/env.h"
#include "common/error.h"
#include "common/simd.h"

namespace mlqr::bench {

/// Commit the binary was configured from (CMake bakes MLQR_GIT_SHA into
/// every bench target); "unknown" outside a git checkout.
inline const char* build_git_sha() {
#ifdef MLQR_GIT_SHA
  return MLQR_GIT_SHA;
#else
  return "unknown";
#endif
}

/// One machine-readable run record: BENCH_<name>.json in the working
/// directory — a flat `context` object (git sha, the runtime-picked SIMD
/// tier, knob values) plus one flat object per row. Values are scalars
/// only, so downstream tooling can load the series with nothing but a JSON
/// parser and a group-by.
class BenchReport {
 public:
  using Scalar = std::variant<std::string, double, std::int64_t, bool>;
  using Fields = std::vector<std::pair<std::string, Scalar>>;

  explicit BenchReport(std::string name) : name_(std::move(name)) {
    context("bench", name_);
    context("git_sha", std::string(build_git_sha()));
    context("simd_tier", std::string(simd::tier()));
    context("fast_mode", fast_mode());
  }

  void context(const std::string& key, Scalar value) {
    context_.emplace_back(key, std::move(value));
  }

  void add_row(Fields row) { rows_.push_back(std::move(row)); }

  /// Writes BENCH_<name>.json; returns the filename.
  std::string save() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream os(path);
    os << "{\n  \"context\": " << object(context_, /*multiline=*/true)
       << ",\n  \"rows\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r)
      os << (r == 0 ? "\n" : ",\n") << "    "
         << object(rows_[r], /*multiline=*/false);
    os << "\n  ]\n}\n";
    os.flush();  // Surface late write errors before the good() check.
    MLQR_CHECK_MSG(os.good(), "failed to write " << path);
    return path;
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  static std::string scalar(const Scalar& v) {
    std::ostringstream os;
    if (const auto* s = std::get_if<std::string>(&v)) {
      os << '"' << escape(*s) << '"';
    } else if (const auto* d = std::get_if<double>(&v)) {
      // Round-trippable precision; JSON has no inf/nan, so non-finite
      // degrades to null rather than corrupting the record.
      if (std::isfinite(*d))
        os << std::setprecision(std::numeric_limits<double>::max_digits10)
           << *d;
      else
        os << "null";
    } else if (const auto* i = std::get_if<std::int64_t>(&v)) {
      os << *i;
    } else {
      os << (std::get<bool>(v) ? "true" : "false");
    }
    return os.str();
  }

  static std::string object(const Fields& fields, bool multiline) {
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) os << ",";
      os << (multiline ? "\n    " : i > 0 ? " " : "");
      os << "\"" << escape(fields[i].first) << "\": " << scalar(fields[i].second);
    }
    if (multiline && !fields.empty()) os << "\n  ";
    os << "}";
    return os.str();
  }

  std::string name_;
  Fields context_;
  std::vector<Fields> rows_;
};

}  // namespace mlqr::bench
