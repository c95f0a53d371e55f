// Per-qubit LDA/QDA readout discriminators (paper Table V baselines).
//
// Each qubit gets an independent Gaussian classifier over its MTV point;
// classification of a shot runs every qubit's classifier on its own
// demodulated channel. Fast, tiny, but blind to trace-shape information
// (relaxation/excitation patterns) and to crosstalk — which is precisely
// the gap the paper's matched-filter + modular-NN design closes.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "discrim/gaussian.h"
#include "discrim/inference_scratch.h"
#include "discrim/shot_set.h"
#include "dsp/demodulator.h"
#include "sim/chip_profile.h"

namespace mlqr {

/// Whole-register discriminator built from per-qubit Gaussian classifiers.
class GaussianShotDiscriminator {
 public:
  /// Trains per-qubit classifiers of `kind` (LDA or QDA) on the selected
  /// shots using `labels_flat` (shot-major, n_qubits stride — typically the
  /// clustering-estimated labels).
  static GaussianShotDiscriminator train(const ShotSet& shots,
                                         std::span<const int> labels_flat,
                                         std::span<const std::size_t> train_idx,
                                         const ChipProfile& chip,
                                         GaussianKind kind);

  /// Classify reusing the scratch's baseband buffer (the per-shot heap
  /// traffic that matters; the 2-D MTV features stay on the stack-ish
  /// small-vector path). `out` must hold one entry per qubit.
  void classify_into(const IqTrace& trace, InferenceScratch& scratch,
                     std::span<int> out) const;

  std::string name() const;
  std::size_t num_qubits() const { return per_qubit_.size(); }
  std::size_t samples_used() const { return samples_used_; }

  /// Binary little-endian persistence of the inference state (kind,
  /// window, demodulator, per-qubit classifiers) — the LDA/QDA calibration
  /// snapshot payload. load throws mlqr::Error on any corrupt or
  /// kind-inconsistent stream.
  void save(std::ostream& os) const;
  static GaussianShotDiscriminator load(std::istream& is);

 private:
  GaussianKind kind_ = GaussianKind::kLda;
  Demodulator demod_;
  std::size_t samples_used_ = 0;
  std::vector<GaussianClassifier> per_qubit_;
};

}  // namespace mlqr
