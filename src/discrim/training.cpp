#include "discrim/training.h"

#include <algorithm>

#include "common/error.h"
#include "common/parallel.h"

namespace mlqr {

FilterFeatures train_filter_features(const ShotSet& shots,
                                     std::span<const int> labels_flat,
                                     std::span<const std::size_t> train_idx,
                                     const Demodulator& demod,
                                     std::size_t n_samples,
                                     const MfBankConfig& cfg) {
  shots.validate();
  MLQR_CHECK(labels_flat.size() == shots.size() * shots.n_qubits);
  MLQR_CHECK(!train_idx.empty());
  MLQR_CHECK(demod.num_qubits() == shots.n_qubits);
  const std::size_t n_qubits = shots.n_qubits;
  const std::size_t per_q = cfg.filters_per_qubit();
  const std::size_t feat_dim = per_q * n_qubits;
  const std::size_t n_train = train_idx.size();

  FilterFeatures out;
  out.train.assign(n_train * feat_dim, 0.0f);
  out.labels.resize(n_qubits);
  std::vector<float> full(n_train * feat_dim, 0.0f);
  std::vector<QubitMfBank> banks(n_qubits);
  for (std::size_t q = 0; q < n_qubits; ++q) {
    const std::vector<BasebandTrace> baseband =
        demodulate_subset(shots, train_idx, demod, q, n_samples);
    std::vector<int>& labels = out.labels[q];
    labels.reserve(n_train);
    for (std::size_t i = 0; i < n_train; ++i)
      labels.push_back(labels_flat[train_idx[i] * n_qubits + q]);

    std::vector<float> xfit;
    parallel_for(0, 2, [&](std::size_t task) {
      if (task == 0)
        banks[q] = QubitMfBank::train(baseband, labels, n_samples, cfg);
      else
        xfit = cross_fit_features(baseband, labels, n_samples, cfg);
    });
    parallel_for_chunked(0, n_train, [&](std::size_t lo, std::size_t hi) {
      std::vector<float> scratch;
      for (std::size_t i = lo; i < hi; ++i) {
        std::copy(xfit.begin() + i * per_q, xfit.begin() + (i + 1) * per_q,
                  out.train.begin() + i * feat_dim + q * per_q);
        scratch.clear();
        banks[q].features(baseband[i], scratch);
        std::copy(scratch.begin(), scratch.end(),
                  full.begin() + i * feat_dim + q * per_q);
      }
    });
  }
  out.bank = ChipMfBank(cfg, std::move(banks));
  FeatureNormalizer::fit(out.train, feat_dim).apply(out.train);
  out.normalizer = FeatureNormalizer::fit(full, feat_dim);
  return out;
}

}  // namespace mlqr
