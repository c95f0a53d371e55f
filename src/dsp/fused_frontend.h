// Fused float demodulation + matched filtering — the float twin of
// QuantizedFrontend's one-pass design.
//
// The unfused float path sweeps the raw trace once per qubit to build a
// complex-double baseband buffer (Demodulator) and then sweeps every
// baseband buffer once per filter (MatchedFilter::apply) — two full
// memory passes and ~90k double multiplies per five-qubit shot. Both
// stages are linear in the raw trace, so they fuse exactly like the
// integer path: pre-rotating every kernel by its qubit's exact LO phasor,
// R_{q,f}(t) = K_f(t) * lo_q(t), turns the whole front-end into
//     score_f = sum_t [ Re R(t) * I(t) - Im R(t) * Q(t) ]
// — one pass over the raw float trace per filter, float SIMD throughout
// (simd::kernels().fused_dot_f32*, picked per host at runtime), no
// intermediate baseband buffer at all. The per-filter MF bias and the
// feature normalizer's (x - mean)/std fold into one trailing affine map,
// clamped at the shared winsorization bound exactly like
// FeatureNormalizer::apply.
//
// Numerics: kernels are rotated in double then stored as float, the
// accumulation runs in float vector lanes in the one order every SIMD
// tier shares (so features do not depend on the host), and the LO comes
// from the exact polar form rather than the demodulator's resync'd
// recurrence — features therefore differ from the reference path by
// normal float rounding (tests pin the parity with a small tolerance; the
// reference path stays available as
// ProposedDiscriminator::features_into_reference).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "discrim/inference_scratch.h"
#include "dsp/demodulator.h"
#include "dsp/fused_kernel_table.h"
#include "mf/mf_bank.h"
#include "nn/normalizer.h"
#include "sim/iq.h"

namespace mlqr {

/// Float one-pass front-end: raw IQ trace -> normalized features, ready
/// for the per-qubit float heads.
class FusedFrontend {
 public:
  FusedFrontend() = default;

  /// Pre-rotates every kernel of `bank` by `demod`'s exact LO phasors and
  /// folds MF bias + `norm` into the trailing affine step. All kernels
  /// must have length `n_samples`.
  static FusedFrontend build(const Demodulator& demod, const ChipMfBank& bank,
                             const FeatureNormalizer& norm,
                             std::size_t n_samples);

  /// One pass over the raw trace: writes every filter's normalized float
  /// feature into scratch.features (resized to n_filters()). Thread-safe
  /// for distinct scratch instances.
  void features_into(const IqTrace& trace, InferenceScratch& scratch) const;

  /// Feature extraction for `block` traces at once, writing shot s's
  /// features to out[s * out_stride + f]. Per (filter, shot) this computes
  /// the score in features_into's order and runs the same affine chain,
  /// so the values are bit-identical. The win is reuse: each kernel row
  /// loads once per four shots (fused_dot_f32_x4), and the whole table
  /// streams once per four-shot block instead of once per shot.
  void features_block_into(std::size_t block, const IqTrace* const* traces,
                           float* out, std::size_t out_stride) const;

  /// False until build() has run (a default-constructed instance).
  bool valid() const { return n_samples_ > 0; }

  std::size_t n_samples() const { return n_samples_; }
  std::size_t n_filters() const { return scale_.size(); }
  std::size_t num_qubits() const { return n_qubits_; }

  /// Binary little-endian persistence of the pre-rotated kernel tables and
  /// affine maps (calibration snapshot leaf); a reloaded front-end computes
  /// bit-identical features.
  void save(std::ostream& os) const;
  static FusedFrontend load(std::istream& is);

 private:
  std::size_t n_samples_ = 0;
  std::size_t n_qubits_ = 0;
  FusedKernelTable<float> table_;  ///< Pre-rotated kernel rows (SoA).
  std::vector<float> scale_;       ///< Per filter: 1 / std.
  std::vector<float> offset_;      ///< Per filter: -(bias + mean) / std.
};

}  // namespace mlqr
