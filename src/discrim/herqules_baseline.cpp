#include "discrim/herqules_baseline.h"

#include <algorithm>

#include "common/error.h"
#include "common/serialize.h"
#include "discrim/joint_label.h"

namespace mlqr {

namespace {

/// Features per qubit: the bank's three QMF and three RMF outputs, in bank
/// order (the published three-level input layout).
constexpr std::size_t kFeaturesPerQubit = 6;

}  // namespace

HerqulesDiscriminator HerqulesDiscriminator::train(
    const ShotSet& shots, std::span<const int> labels_flat,
    std::span<const std::size_t> train_idx, const ChipProfile& chip,
    const HerqulesConfig& cfg) {
  shots.validate();
  MLQR_CHECK(labels_flat.size() == shots.size() * shots.n_qubits);
  MLQR_CHECK(!train_idx.empty());

  HerqulesDiscriminator d;
  d.n_qubits_ = shots.n_qubits;
  d.demod_ = Demodulator(chip);
  d.samples_used_ = chip.n_samples;

  MfBankConfig bank_cfg;
  bank_cfg.use_qmf = true;
  bank_cfg.use_rmf = true;
  bank_cfg.use_emf = false;  // HERQULES has no excitation filters.

  const std::size_t per_q = bank_cfg.filters_per_qubit();
  MLQR_CHECK(per_q == kFeaturesPerQubit);
  const std::size_t feat_dim = per_q * shots.n_qubits;
  const std::size_t n_train = train_idx.size();

  std::vector<float> features(n_train * feat_dim, 0.0f);
  std::vector<float> full_features(n_train * feat_dim, 0.0f);
  std::vector<QubitMfBank> banks;
  banks.reserve(shots.n_qubits);
  for (std::size_t q = 0; q < shots.n_qubits; ++q) {
    const std::vector<BasebandTrace> baseband =
        demodulate_subset(shots, train_idx, d.demod_, q, d.samples_used_);
    std::vector<int> labels(n_train);
    for (std::size_t i = 0; i < n_train; ++i)
      labels[i] = labels_flat[train_idx[i] * shots.n_qubits + q];
    // Training features are cross-fitted (see cross_fit_features).
    banks.push_back(
        QubitMfBank::train(baseband, labels, d.samples_used_, bank_cfg));

    const std::vector<float> xfit =
        cross_fit_features(baseband, labels, d.samples_used_, bank_cfg);
    std::vector<float> scratch;
    for (std::size_t u = 0; u < n_train; ++u) {
      const float* row = xfit.data() + u * per_q;
      scratch.clear();
      banks.back().features(baseband[u], scratch);
      for (std::size_t f = 0; f < per_q; ++f) {
        features[u * feat_dim + q * per_q + f] = row[f];
        full_features[u * feat_dim + q * per_q + f] = scratch[f];
      }
    }
  }
  d.bank_.adopt(bank_cfg, std::move(banks));

  std::vector<int> joint(n_train);
  for (std::size_t u = 0; u < n_train; ++u) {
    const std::size_t s = train_idx[u];
    joint[u] = static_cast<int>(encode_joint(
        labels_flat.subspan(s * shots.n_qubits, shots.n_qubits), kNumLevels));
  }

  // Separate normalizers for the cross-fitted training features and the
  // full-bank inference features (see ProposedDiscriminator::train).
  FeatureNormalizer train_norm = FeatureNormalizer::fit(features, feat_dim);
  train_norm.apply(features);
  d.normalizer_ = FeatureNormalizer::fit(full_features, feat_dim);

  std::vector<std::size_t> sizes{feat_dim};
  sizes.insert(sizes.end(), cfg.hidden.begin(), cfg.hidden.end());
  const std::size_t n_classes = joint_class_count(shots.n_qubits, kNumLevels);
  sizes.push_back(n_classes);

  Rng init_rng(cfg.trainer.seed);
  d.model_ = Mlp(sizes);
  d.model_.init_weights(init_rng);
  TrainerConfig tcfg = cfg.trainer;
  if (cfg.balance_classes) {
    tcfg.class_weights = inverse_frequency_weights(joint, n_classes);
    for (float& w : tcfg.class_weights)
      w = std::min(w, cfg.class_weight_cap);
  }
  train_classifier(d.model_, features, joint, tcfg);
  return d;
}

void HerqulesDiscriminator::classify_into(const IqTrace& trace,
                                          InferenceScratch& scratch,
                                          std::span<int> out) const {
  MLQR_CHECK(out.size() == n_qubits_);
  constexpr std::size_t per_q = kFeaturesPerQubit;
  std::vector<float>& feats = scratch.features;
  feats.assign(per_q * n_qubits_, 0.0f);
  if (scratch.baseband.empty()) scratch.baseband.resize(1);
  BasebandTrace& baseband = scratch.baseband.front();
  for (std::size_t q = 0; q < n_qubits_; ++q) {
    demod_.demodulate_into(trace, q, samples_used_, baseband);
    scratch.qubit_features.clear();
    bank_.bank(q).features(baseband, scratch.qubit_features);
    for (std::size_t f = 0; f < per_q; ++f)
      feats[q * per_q + f] = scratch.qubit_features[f];
  }
  normalizer_.apply(feats);
  const int joint =
      model_.predict_reusing(feats, scratch.logits, scratch.activations);
  decode_joint_into(static_cast<std::size_t>(joint), kNumLevels, out);
}

void HerqulesDiscriminator::save(std::ostream& os) const {
  io::write_u32(os, static_cast<std::uint32_t>(kNumLevels));
  io::write_u64(os, n_qubits_);
  io::write_u64(os, samples_used_);
  demod_.save(os);
  bank_.save(os);
  normalizer_.save(os);
  model_.save(os);
}

HerqulesDiscriminator HerqulesDiscriminator::load(std::istream& is) {
  HerqulesDiscriminator d;
  const std::uint32_t n_levels = io::read_u32(is);
  MLQR_CHECK_MSG(n_levels == static_cast<std::uint32_t>(kNumLevels),
                 "corrupt HERQULES snapshot: " << n_levels << " levels");
  d.n_qubits_ = io::read_count(is, 4096);
  d.samples_used_ = io::read_count(is);
  MLQR_CHECK_MSG(d.n_qubits_ > 0 && d.samples_used_ > 0,
                 "corrupt HERQULES snapshot dims");
  d.demod_ = Demodulator::load(is);
  d.bank_ = ChipMfBank::load(is);
  d.normalizer_ = FeatureNormalizer::load(is);
  d.model_ = Mlp::load(is);

  // Cross-component consistency — every index classify_into takes must be
  // provably in range before the discriminator is handed out.
  MLQR_CHECK_MSG(d.demod_.num_qubits() == d.n_qubits_ &&
                     d.bank_.num_qubits() == d.n_qubits_,
                 "HERQULES snapshot qubit counts disagree (header "
                     << d.n_qubits_ << ", demod " << d.demod_.num_qubits()
                     << ", bank " << d.bank_.num_qubits() << ')');
  MLQR_CHECK_MSG(d.bank_.features_per_qubit() >= kFeaturesPerQubit,
                 "HERQULES snapshot bank has too few filters for "
                     << kNumLevels << "-level readout");
  for (std::size_t q = 0; q < d.n_qubits_; ++q)
    for (std::size_t f = 0; f < d.bank_.bank(q).feature_count(); ++f)
      MLQR_CHECK_MSG(
          d.bank_.bank(q).filter(f).length() == d.samples_used_,
          "HERQULES snapshot kernel length does not match its window");
  const std::size_t feat_dim = kFeaturesPerQubit * d.n_qubits_;
  MLQR_CHECK_MSG(
      d.normalizer_.dim() == feat_dim && d.model_.input_size() == feat_dim,
      "HERQULES snapshot feature dims disagree (layout " << feat_dim
          << ", normalizer " << d.normalizer_.dim() << ", head "
          << d.model_.input_size() << ')');
  MLQR_CHECK_MSG(d.model_.output_size() ==
                     joint_class_count(d.n_qubits_, kNumLevels),
                 "HERQULES snapshot head does not match its qubit/level "
                 "counts");
  return d;
}

}  // namespace mlqr
