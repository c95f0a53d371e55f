// Pairwise matched filters for quantum-state discrimination (paper SSV-B).
//
// For two trace classes with per-time-bin means mu_a(t), mu_b(t) and
// variances sigma_a^2(t), sigma_b^2(t), the kernel is
//     K(t) = (mu_b(t) - mu_a(t)) / (sigma_a^2(t) + sigma_b^2(t) + eps).
// (The paper's Eq. writes a variance *difference* in the denominator; with
// state-independent amplifier noise that difference is ~0 and the kernel
// diverges, so we use the standard SNR-optimal variance-sum form — the
// ISCA'23 HERQULES construction. This is a deliberate deviation from the
// paper's equation.)
//
// Applying a filter is a single complex dot product against the baseband
// trace; the real part is the decision score. Kernels are affinely
// normalized so the two training-class centroids map to -0.5 and +0.5,
// which keeps downstream NN inputs well-conditioned and makes the sign of
// the score directly interpretable (positive = class b).
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "sim/iq.h"

namespace mlqr {

/// Per-time-bin complex mean and total (real+imag) variance over one class
/// of traces. A bank computes each distinct class's statistics once and
/// shares them among every filter that class takes part in.
struct BinStats {
  std::vector<Complexd> mean;
  std::vector<double> var;
};

/// Statistics of the first `n_samples` bins over traces[members] (walked in
/// `members` order). Throws when `members` is empty or a trace is short.
BinStats bin_stats(std::span<const BasebandTrace> traces,
                   std::span<const std::size_t> members, std::size_t n_samples);

/// A trained two-class matched filter over complex baseband traces.
class MatchedFilter {
 public:
  MatchedFilter() = default;

  /// Builds a filter separating class a (score -0.5) from class b (+0.5).
  /// Both spans index into `traces`; every referenced trace must have at
  /// least `n_samples` entries. Throws when either class is empty.
  ///
  /// `smooth_window` boxcar-smooths the kernel along time. The resonator
  /// band-limits the real signal dynamics (tau ~ 100 ns >> the 2 ns bin),
  /// while the amplifier noise baked into small-sample mean estimates is
  /// white — smoothing therefore strips the embedded noise that would
  /// otherwise inflate scores of the very traces the kernel was fit on
  /// (rare-|2> kernels are fit from a handful of mined traces).
  static MatchedFilter build(std::span<const BasebandTrace> traces,
                             std::span<const std::size_t> class_a,
                             std::span<const std::size_t> class_b,
                             std::size_t n_samples,
                             std::size_t smooth_window = 16);

  /// The same filter from precomputed class statistics: `stats_a` must be
  /// bin_stats(traces, class_a, n) and `stats_b` likewise, and the result is
  /// then bit-identical to the stand-alone build above. The class spans are
  /// still read once, for the within-class spread of the projections.
  static MatchedFilter build(std::span<const BasebandTrace> traces,
                             std::span<const std::size_t> class_a,
                             const BinStats& stats_a,
                             std::span<const std::size_t> class_b,
                             const BinStats& stats_b,
                             std::size_t smooth_window = 16);

  /// Decision score for one trace (uses the first kernel-length samples).
  double apply(const BasebandTrace& trace) const;

  std::size_t length() const { return kernel_.size(); }
  const std::vector<Complexd>& kernel() const { return kernel_; }
  /// Affine offset subtracted after projection (quantized front-ends fold
  /// this into their requantization step).
  double bias() const { return bias_; }

  /// Binary little-endian persistence (calibration snapshot leaf): the
  /// conjugated kernel, bias and separation travel as exact f64 bit
  /// patterns, so a reloaded filter scores every trace bit-identically.
  void save(std::ostream& os) const;
  static MatchedFilter load(std::istream& is);

 private:
  std::vector<Complexd> kernel_;  ///< Conjugated, scaled kernel.
  double bias_ = 0.0;             ///< Subtracted after projection.
  /// Raw (pre-normalization) separation between the training centroids
  /// (~SNR in kernel units). Nothing reads it back, but it stays: it is
  /// part of the snapshot wire format.
  double separation_ = 0.0;
};

}  // namespace mlqr
