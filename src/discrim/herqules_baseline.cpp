#include "discrim/herqules_baseline.h"

#include "common/error.h"
#include "common/serialize.h"
#include "discrim/joint_label.h"
#include "discrim/training.h"

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
  HerqulesDiscriminator d;
  d.n_qubits_ = shots.n_qubits;
  d.demod_ = Demodulator(chip);
  d.samples_used_ = chip.n_samples;

  MfBankConfig bank_cfg;
  bank_cfg.use_qmf = true;
  bank_cfg.use_rmf = true;
  bank_cfg.use_emf = false;  // HERQULES has no excitation filters.
  MLQR_CHECK(bank_cfg.filters_per_qubit() == kFeaturesPerQubit);
  FilterFeatures ff = train_filter_features(
      shots, labels_flat, train_idx, d.demod_, d.samples_used_, bank_cfg);
  d.bank_ = std::move(ff.bank);
  d.normalizer_ = std::move(ff.normalizer);
  d.model_ = train_joint_head(
      ff.train, labels_flat, train_idx, d.n_qubits_, cfg.hidden, cfg.trainer,
      cfg.trainer.seed,
      cfg.balance_classes ? std::optional(cfg.class_weight_cap) : std::nullopt);
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
