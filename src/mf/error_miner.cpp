#include "mf/error_miner.h"

#include <cmath>
#include <numeric>

#include "common/error.h"
#include "dsp/filters.h"

namespace mlqr {

MinedErrorTraces mine_error_traces(std::span<const BasebandTrace> traces,
                                   std::span<const int> labels) {
  std::vector<std::size_t> rows(traces.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return mine_error_traces(traces, labels, rows);
}

MinedErrorTraces mine_error_traces(std::span<const BasebandTrace> traces,
                                   std::span<const int> labels,
                                   std::span<const std::size_t> rows) {
  static_assert(kMinerEarlyFraction > 0.0 && kMinerLateFraction > 0.0 &&
                kMinerEarlyFraction + kMinerLateFraction <= 1.0);
  MLQR_CHECK(traces.size() == labels.size());
  MLQR_CHECK(!rows.empty());

  for (std::size_t s : rows) MLQR_CHECK(s < traces.size());
  const std::size_t n_samples = traces[rows[0]].size();
  const std::size_t early_end = std::max<std::size_t>(
      1, static_cast<std::size_t>(kMinerEarlyFraction * n_samples));
  const std::size_t late_begin = n_samples - std::max<std::size_t>(
      1, static_cast<std::size_t>(kMinerLateFraction * n_samples));

  // Steady-state centroids per level from the *late* window of each class;
  // the late window is past the resonator ring-up, so non-error traces sit
  // at their state's steady response there. These serve as the "priors for
  // cluster identification" of the paper.
  std::array<Complexd, kNumLevels> centroid{};
  std::array<std::size_t, kNumLevels> count{};
  for (std::size_t s : rows) {
    const int lab = labels[s];
    MLQR_CHECK(lab >= 0 && lab < kNumLevels);
    centroid[lab] += window_mean(traces[s], late_begin, n_samples);
    ++count[lab];
  }
  for (int l = 0; l < kNumLevels; ++l)
    if (count[l] > 0) centroid[l] /= static_cast<double>(count[l]);

  MinedErrorTraces mined;
  for (std::size_t s : rows) {
    const int lab = labels[s];
    if (count[lab] == 0) continue;
    const Complexd late = window_mean(traces[s], late_begin, n_samples);

    // Nearest centroid of the late window.
    int dest = lab;
    double best = std::abs(late - centroid[lab]);
    for (int l = 0; l < kNumLevels; ++l) {
      if (l == lab || count[l] == 0) continue;
      const double d = std::abs(late - centroid[l]);
      if (d * kMinerMargin < best) {
        best = d;
        dest = l;
      }
    }

    if (dest == lab) {
      mined.clean[lab].push_back(s);
      continue;
    }
    // Require the early window to still look like the labeled state —
    // otherwise this is more likely a mislabeled trace than a transition.
    const Complexd early = window_mean(traces[s], 0, early_end);
    const double d_own = std::abs(early - centroid[lab]);
    const double d_dest = std::abs(early - centroid[dest]);
    if (d_own > d_dest) {
      // Looks foreign from the start; skip entirely (neither clean nor
      // error) so it cannot contaminate a kernel.
      continue;
    }

    if (dest < lab) {
      for (std::size_t p = 0; p < mined.kRelaxPairs.size(); ++p)
        if (mined.kRelaxPairs[p] == std::pair<int, int>{lab, dest})
          mined.relaxation[p].push_back(s);
    } else {
      for (std::size_t p = 0; p < mined.kExcitePairs.size(); ++p)
        if (mined.kExcitePairs[p] == std::pair<int, int>{lab, dest})
          mined.excitation[p].push_back(s);
    }
  }
  return mined;
}

}  // namespace mlqr
