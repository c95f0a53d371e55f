// Calibration-free leakage discovery (paper SSV-A).
//
// Input: one qubit's MTV points (complex -> 2-D) plus the *intended*
// computational preparation (0/1) of each trace. Traces that sit far from
// both computational clusters — and off the relaxation/excitation "chord"
// that connects them (mid-readout decay drags an MTV along that line) —
// form the naturally-occurring |2> population, without any explicit |2>
// calibration.
//
// The paper identifies the leaked cluster with spectral clustering
// (reproduced in bench/reproduce's Fig 3 via cluster/spectral.h); the
// production labeler here uses a robust geometric equivalent (median
// centroids, scaled-outlier gating, chord rejection) that stays reliable
// when the leakage prevalence drops to ~0.1% — the regime where a generic
// 3-way clustering tends to split a computational blob instead (see
// DESIGN.md SS5).
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace mlqr {

/// Output of the labeler for one qubit.
struct LeakageLabeling {
  std::vector<int> levels;  ///< Estimated level (0/1/2) per trace.
  /// MTV-space centroids for levels 0/1/2 (centroids[2] is meaningful only
  /// when found_leakage).
  std::vector<std::complex<double>> centroids;
  std::size_t leakage_count = 0;  ///< Traces assigned |2>.
  bool found_leakage = false;
};

/// Labels every trace with an estimated 3-level state from 2-level
/// calibration data. `mtv` and `prepared` are parallel arrays; `prepared`
/// entries must be 0 or 1.
LeakageLabeling label_natural_leakage(
    std::span<const std::complex<double>> mtv, std::span<const int> prepared);

}  // namespace mlqr
