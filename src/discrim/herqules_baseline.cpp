#include "discrim/herqules_baseline.h"

#include <algorithm>
#include <array>

#include "common/error.h"
#include "common/serialize.h"
#include "discrim/joint_label.h"

namespace mlqr {

namespace {

/// Per-qubit feature indices used at a given level count. The bank always
/// holds 3 QMF + 3 RMF; two-level mode keeps only the |0>vs|1> QMF and the
/// 1->0 RMF (the published two-level input layout, 2 features per qubit).
/// Shared by training and the allocation-free inference path so the two
/// can never disagree on the feature layout.
std::span<const std::size_t> active_filter_indices(int n_levels) {
  static constexpr std::array<std::size_t, 6> kThreeLevel{0, 1, 2, 3, 4, 5};
  static constexpr std::array<std::size_t, 2> kTwoLevel{0, 3};
  if (n_levels >= 3) return kThreeLevel;
  return kTwoLevel;
}

}  // namespace

HerqulesDiscriminator HerqulesDiscriminator::train(
    const ShotSet& shots, std::span<const int> labels_flat,
    std::span<const std::size_t> train_idx, const ChipProfile& chip,
    const HerqulesConfig& cfg) {
  shots.validate();
  MLQR_CHECK(labels_flat.size() == shots.size() * shots.n_qubits);
  MLQR_CHECK(!train_idx.empty());
  MLQR_CHECK(cfg.n_levels >= 2 && cfg.n_levels <= kNumLevels);

  HerqulesDiscriminator d;
  d.cfg_ = cfg;
  d.n_qubits_ = shots.n_qubits;
  d.demod_ = Demodulator(chip);
  d.samples_used_ = chip.n_samples;

  MfBankConfig bank_cfg;
  bank_cfg.use_qmf = true;
  bank_cfg.use_rmf = true;
  bank_cfg.use_emf = false;  // HERQULES has no excitation filters.

  const std::span<const std::size_t> active =
      active_filter_indices(cfg.n_levels);
  const std::size_t per_q = active.size();
  const std::size_t feat_dim = per_q * shots.n_qubits;
  const std::size_t n_train = train_idx.size();

  // Joint-head training set: shots whose labels are representable.
  std::vector<std::size_t> usable_pos;  // Position within train_idx.
  usable_pos.reserve(n_train);
  for (std::size_t i = 0; i < n_train; ++i) {
    bool ok = true;
    const std::size_t s = train_idx[i];
    for (std::size_t q = 0; q < shots.n_qubits && ok; ++q)
      ok = labels_flat[s * shots.n_qubits + q] < cfg.n_levels;
    if (ok) usable_pos.push_back(i);
  }
  MLQR_CHECK_MSG(!usable_pos.empty(), "no usable training shots");

  std::vector<float> features(usable_pos.size() * feat_dim, 0.0f);
  std::vector<float> full_features(usable_pos.size() * feat_dim, 0.0f);
  std::vector<QubitMfBank> banks;
  banks.reserve(shots.n_qubits);
  for (std::size_t q = 0; q < shots.n_qubits; ++q) {
    const std::vector<BasebandTrace> baseband =
        demodulate_subset(shots, train_idx, d.demod_, q, d.samples_used_);
    std::vector<int> labels(n_train);
    for (std::size_t i = 0; i < n_train; ++i)
      labels[i] = labels_flat[train_idx[i] * shots.n_qubits + q];
    // Banks are always trained on the full 3-level labels (the filters
    // need |2> statistics); two-level mode just reads fewer of them.
    // Training features are cross-fitted (see cross_fit_features).
    banks.push_back(
        QubitMfBank::train(baseband, labels, d.samples_used_, bank_cfg));

    const std::vector<float> xfit =
        cross_fit_features(baseband, labels, d.samples_used_, bank_cfg);
    const std::size_t bank_per_q = bank_cfg.filters_per_qubit();
    std::vector<float> scratch;
    for (std::size_t u = 0; u < usable_pos.size(); ++u) {
      const float* row = xfit.data() + usable_pos[u] * bank_per_q;
      scratch.clear();
      banks.back().features(baseband[usable_pos[u]], scratch);
      for (std::size_t f = 0; f < per_q; ++f) {
        features[u * feat_dim + q * per_q + f] = row[active[f]];
        full_features[u * feat_dim + q * per_q + f] = scratch[active[f]];
      }
    }
  }
  d.bank_.adopt(bank_cfg, std::move(banks));

  std::vector<int> joint(usable_pos.size());
  for (std::size_t u = 0; u < usable_pos.size(); ++u) {
    const std::size_t s = train_idx[usable_pos[u]];
    joint[u] = static_cast<int>(encode_joint(
        labels_flat.subspan(s * shots.n_qubits, shots.n_qubits),
        cfg.n_levels));
  }

  // Separate normalizers for the cross-fitted training features and the
  // full-bank inference features (see ProposedDiscriminator::train).
  FeatureNormalizer train_norm = FeatureNormalizer::fit(features, feat_dim);
  train_norm.apply(features);
  d.normalizer_ = FeatureNormalizer::fit(full_features, feat_dim);

  std::vector<std::size_t> sizes{feat_dim};
  sizes.insert(sizes.end(), cfg.hidden.begin(), cfg.hidden.end());
  const std::size_t n_classes =
      joint_class_count(shots.n_qubits, cfg.n_levels);
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
  const std::span<const std::size_t> active =
      active_filter_indices(cfg_.n_levels);
  const std::size_t per_q = active.size();
  std::vector<float>& feats = scratch.features;
  feats.assign(per_q * n_qubits_, 0.0f);
  if (scratch.baseband.empty()) scratch.baseband.resize(1);
  BasebandTrace& baseband = scratch.baseband.front();
  for (std::size_t q = 0; q < n_qubits_; ++q) {
    demod_.demodulate_into(trace, q, samples_used_, baseband);
    scratch.qubit_features.clear();
    bank_.bank(q).features(baseband, scratch.qubit_features);
    for (std::size_t f = 0; f < per_q; ++f)
      feats[q * per_q + f] = scratch.qubit_features[active[f]];
  }
  normalizer_.apply(feats);
  const int joint =
      model_.predict_reusing(feats, scratch.logits, scratch.activations);
  decode_joint_into(static_cast<std::size_t>(joint), cfg_.n_levels, out);
}

void HerqulesDiscriminator::save(std::ostream& os) const {
  io::write_u32(os, static_cast<std::uint32_t>(cfg_.n_levels));
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
  MLQR_CHECK_MSG(
      n_levels >= 2 && n_levels <= static_cast<std::uint32_t>(kNumLevels),
      "corrupt HERQULES snapshot: " << n_levels << " levels");
  d.cfg_.n_levels = static_cast<int>(n_levels);
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
  const std::span<const std::size_t> active =
      active_filter_indices(d.cfg_.n_levels);
  MLQR_CHECK_MSG(d.bank_.features_per_qubit() > active.back(),
                 "HERQULES snapshot bank has too few filters for "
                     << d.cfg_.n_levels << "-level readout");
  for (std::size_t q = 0; q < d.n_qubits_; ++q)
    for (std::size_t f = 0; f < d.bank_.bank(q).feature_count(); ++f)
      MLQR_CHECK_MSG(
          d.bank_.bank(q).filter(f).length() == d.samples_used_,
          "HERQULES snapshot kernel length does not match its window");
  const std::size_t feat_dim = active.size() * d.n_qubits_;
  MLQR_CHECK_MSG(
      d.normalizer_.dim() == feat_dim && d.model_.input_size() == feat_dim,
      "HERQULES snapshot feature dims disagree (layout " << feat_dim
          << ", normalizer " << d.normalizer_.dim() << ", head "
          << d.model_.input_size() << ')');
  MLQR_CHECK_MSG(d.model_.output_size() ==
                     joint_class_count(d.n_qubits_, d.cfg_.n_levels),
                 "HERQULES snapshot head does not match its qubit/level "
                 "counts");
  return d;
}

}  // namespace mlqr
