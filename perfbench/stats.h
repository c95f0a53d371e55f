// Statistics and result formatting for the repository benchmark.
//
// Everything here is a pure function of its inputs so stats_test.cpp can
// pin it without running a workload: order statistics, the "highest
// percentile with at least ten samples beyond it" rule, windowed figures,
// backlog-growth detection, and the one-line JSON result the benchmark
// prints last.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] of `v`, linear interpolation between the two
/// nearest order statistics (position q * (n - 1)). Infinite samples (a
/// failed shot counts as missing every latency limit) sort last. Empty
/// input is a caller bug.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || v[lo] == v[hi]) return v[lo];
  return v[lo] + frac * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Median and quartiles of a sample; spread() is the interquartile range as
/// a share of the median (the benchmark's steadiness measure).
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double spread() const {
    return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
  }
};

inline Summary summarize(const std::vector<double>& v) {
  return {quantile(v, 0.5), quantile(v, 0.25), quantile(v, 0.75)};
}

/// Samples strictly beyond percentile `pct` of an n-sample set.
inline std::size_t samples_beyond(std::size_t n, double pct) {
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (1.0 - pct / 100.0) + 1e-9));
}

/// A tail percentile and its value.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};

/// The highest percentile of {50, 90, 95, 99, 99.9, 99.99} that keeps at
/// least `min_beyond` samples beyond it; nullopt when even the median
/// does not (fewer than 2 * min_beyond samples).
inline std::optional<Tail> highest_supported_tail(
    const std::vector<double>& v, std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 50.0};
  for (double pct : kLadder) {
    const std::size_t beyond = samples_beyond(v.size(), pct);
    if (beyond >= min_beyond) return Tail{pct, quantile(v, pct / 100.0), beyond};
  }
  return std::nullopt;
}

/// Splits `v` (in arrival order) into consecutive windows of `window`
/// samples, drops a trailing partial window unless it is the only one, and
/// returns quantile q of each window. Taking the median of these damps a
/// single stall that would otherwise own the whole run's tail.
inline std::vector<double> windowed_quantiles(const std::vector<double>& v,
                                              std::size_t window, double q) {
  std::vector<double> out;
  if (v.empty() || window == 0) return out;
  for (std::size_t lo = 0; lo + window <= v.size(); lo += window)
    out.push_back(quantile({v.begin() + static_cast<std::ptrdiff_t>(lo),
                            v.begin() + static_cast<std::ptrdiff_t>(lo + window)},
                           q));
  if (out.empty()) out.push_back(quantile(v, q));
  return out;
}

/// The figure of a run's least disturbed windows, given each window's
/// figure and the host steal time during it: keeps the windows stolen from
/// no more than the least-stolen quarter of them (every window when the
/// host took nothing) and returns quantile q of their figures, a low q for
/// a time and a high q for a rate. A host that takes CPU away stalls
/// whatever runs at that moment; this keeps such stalls out of the figure,
/// while a change to the program moves every window and so the figure.
inline double least_disturbed(const std::vector<double>& figure,
                              const std::vector<double>& steal, double q) {
  if (figure.empty() || figure.size() != steal.size())
    throw std::invalid_argument("least_disturbed needs one steal per figure");
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const double limit = sorted[(sorted.size() - 1) / 4];
  std::vector<double> kept;
  for (std::size_t i = 0; i < figure.size(); ++i)
    if (steal[i] <= limit) kept.push_back(figure[i]);
  return quantile(kept, q);
}

/// True when a backlog series (time, shots submitted but not consumed)
/// keeps growing: the mean backlog rises across all four time quarters of
/// the series and the last quarter exceeds the first by more than
/// max(min_growth, rel_growth * first-quarter mean). A backlog that sits
/// flat, even high against a full ring, is not growing.
inline bool backlog_growing(const std::vector<std::pair<double, double>>& series,
                            double min_growth = 16.0, double rel_growth = 0.5) {
  if (series.size() < 8) return false;
  const double t0 = series.front().first;
  const double span = series.back().first - t0;
  if (span <= 0.0) return false;
  double sum[4] = {0, 0, 0, 0};
  std::size_t cnt[4] = {0, 0, 0, 0};
  for (const auto& [t, b] : series) {
    const std::size_t k =
        std::min<std::size_t>(3, static_cast<std::size_t>(4.0 * (t - t0) / span));
    sum[k] += b;
    ++cnt[k];
  }
  double mean[4];
  for (int k = 0; k < 4; ++k) {
    if (cnt[k] == 0) return false;
    mean[k] = sum[k] / static_cast<double>(cnt[k]);
  }
  for (int k = 1; k < 4; ++k)
    if (mean[k] < mean[k - 1]) return false;
  return mean[3] - mean[0] > std::max(min_growth, rel_growth * mean[0]);
}

/// A metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Shortest text that reads back as the same double (all its digits).
inline std::string json_number(double x) {
  if (!std::isfinite(x)) throw std::invalid_argument("non-finite metric value");
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << x;
  return os.str();
}

/// The benchmark's last line: {"correct", "attempted", "failed", "metrics"}.
inline std::string result_json(bool correct, std::uint64_t attempted,
                               std::uint64_t failed,
                               const std::map<std::string, Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
