// The training stage the designs share: OURS and the filter-fed
// JointHeadDiscriminator (HERQULES, the modularity ablation) put per-qubit
// matched-filter banks in front of their NNs (paper SSIV-B, SSV), and this
// trains them, once. The k^n joint head itself trains in joint_head.cpp.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "discrim/shot_set.h"
#include "dsp/demodulator.h"
#include "mf/mf_bank.h"
#include "nn/normalizer.h"

namespace mlqr {

/// A trained chip bank with the features of the training shots.
struct FilterFeatures {
  ChipMfBank bank;  ///< Trained on every training shot; serves inference.
  /// Cross-fitted scores of train_idx's shots (row i, qubit-major), each
  /// column standardized by its own statistics.
  std::vector<float> train;
  /// Fit on the full bank's scores of the same shots; serves inference.
  FeatureNormalizer normalizer;
  /// labels[q][i]: qubit q's level for shot train_idx[i].
  std::vector<std::vector<int>> labels;
};

/// Trains one QubitMfBank per qubit on the first `n_samples` of the
/// training shots' baseband. Qubit by qubit, so peak memory is one
/// channel's baseband: the full bank and the cross-fit folds train side by
/// side on the shared pool, then the full-bank scoring splits over shots.
/// The head trains on cross-fitted features, so rare-|2> kernel overfit
/// cannot leak into its thresholds (see cross_fit_features). Each feature
/// version is z-scored by its own statistics, which absorbs the affine
/// drift between the fold banks and the full bank. Every task writes its
/// own outputs, so the result does not depend on the pool size.
FilterFeatures train_filter_features(const ShotSet& shots,
                                     std::span<const int> labels_flat,
                                     std::span<const std::size_t> train_idx,
                                     const Demodulator& demod,
                                     std::size_t n_samples,
                                     const MfBankConfig& cfg);

}  // namespace mlqr
