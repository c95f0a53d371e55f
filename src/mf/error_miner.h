// Error-trace mining (paper SSV-B "Deciphering Error Traces").
//
// Relaxation and excitation events leave a signature inside a trace: the
// early window looks like the initial state, the late window like the
// destination state. Following the paper, traces of a labeled state whose
// late-window mean sits closer to *another* state's centroid are tagged as
// error traces for the corresponding transition. No ground-truth trajectory
// information is used — the simulator's trajectories only validate the
// miner in tests.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "sim/chip_profile.h"
#include "sim/iq.h"

namespace mlqr {

/// Transitions mined for one qubit. Indexing helpers keep the nine-filter
/// bank layout consistent everywhere.
struct MinedErrorTraces {
  /// relaxation[pair]: pair 0 = 1->0, 1 = 2->0, 2 = 2->1.
  std::array<std::vector<std::size_t>, 3> relaxation;
  /// excitation[pair]: pair 0 = 0->1, 1 = 0->2, 2 = 1->2.
  std::array<std::vector<std::size_t>, 3> excitation;
  /// clean[level]: traces of `level` with no detected transition.
  std::array<std::vector<std::size_t>, kNumLevels> clean;

  static constexpr std::array<std::pair<int, int>, 3> kRelaxPairs{
      {{1, 0}, {2, 0}, {2, 1}}};
  static constexpr std::array<std::pair<int, int>, 3> kExcitePairs{
      {{0, 1}, {0, 2}, {1, 2}}};
};

/// The miner's fixed windows: the first kMinerEarlyFraction of a trace is
/// the "early" window (state prior), the last kMinerLateFraction the "late"
/// one (destination evidence). A trace is tagged as an error only when its
/// late window is closer to the foreign centroid by the factor kMinerMargin
/// (robustness to noise at low SNR).
inline constexpr double kMinerEarlyFraction = 0.35;
inline constexpr double kMinerLateFraction = 0.35;
inline constexpr double kMinerMargin = 1.0;

/// Mines error traces for one qubit from its baseband traces and 3-level
/// labels (labels = state at readout start, e.g. from spectral clustering).
MinedErrorTraces mine_error_traces(std::span<const BasebandTrace> traces,
                                   std::span<const int> labels);

/// Mines only the listed rows of `traces` (labels[s] belongs to traces[s]),
/// walked in `rows` order; the mined sets hold row numbers s of `traces`.
/// The sets equal those mined from a copy of the listed traces, with every
/// copy-relative index j mapped to rows[j].
MinedErrorTraces mine_error_traces(std::span<const BasebandTrace> traces,
                                   std::span<const int> labels,
                                   std::span<const std::size_t> rows);

}  // namespace mlqr
