#include "discrim/joint_head.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "discrim/joint_label.h"
#include "discrim/training.h"

namespace mlqr {

JointHeadDiscriminator JointHeadDiscriminator::train(
    const ShotSet& shots, std::span<const int> labels_flat,
    std::span<const std::size_t> train_idx, const ChipProfile& chip,
    const JointHeadConfig& cfg) {
  shots.validate();
  MLQR_CHECK(labels_flat.size() == shots.size() * shots.n_qubits);
  MLQR_CHECK(!train_idx.empty());

  JointHeadDiscriminator d;
  d.n_qubits_ = shots.n_qubits;
  d.samples_used_ = chip.n_samples;
  std::vector<float> features;
  if (cfg.filters) {
    d.source_ = JointHeadSource::kFilters;
    d.demod_ = Demodulator(chip);
    FilterFeatures ff = train_filter_features(
        shots, labels_flat, train_idx, d.demod_, d.samples_used_, *cfg.filters);
    d.bank_ = std::move(ff.bank);
    d.normalizer_ = std::move(ff.normalizer);
    features = std::move(ff.train);
  } else {
    const std::size_t dim = d.feature_dim();
    features.resize(train_idx.size() * dim);
    InferenceScratch scratch;
    for (std::size_t i = 0; i < train_idx.size(); ++i)
      d.features_into(shots.traces[train_idx[i]], scratch,
                      features.data() + i * dim);
    d.normalizer_ = FeatureNormalizer::fit(features, dim);
    d.normalizer_.apply(features);
  }

  // The {dim, hidden..., k^n} head against the training shots' joint labels.
  std::vector<int> joint(train_idx.size());
  for (std::size_t i = 0; i < train_idx.size(); ++i)
    joint[i] = static_cast<int>(encode_joint(
        labels_flat.subspan(train_idx[i] * d.n_qubits_, d.n_qubits_),
        kNumLevels));
  std::vector<std::size_t> sizes{d.feature_dim()};
  sizes.insert(sizes.end(), cfg.hidden.begin(), cfg.hidden.end());
  const std::size_t n_classes = joint_class_count(d.n_qubits_, kNumLevels);
  sizes.push_back(n_classes);
  d.model_ = Mlp(sizes);
  Rng init_rng(cfg.trainer.seed);
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

std::size_t JointHeadDiscriminator::feature_dim() const {
  return source_ == JointHeadSource::kRawIq ? 2 * samples_used_
                                            : bank_.total_features();
}

void JointHeadDiscriminator::features_into(const IqTrace& trace,
                                           InferenceScratch& scratch,
                                           float* row) const {
  if (source_ == JointHeadSource::kRawIq) {
    MLQR_CHECK(trace.size() >= samples_used_);
    std::copy_n(trace.i.begin(), samples_used_, row);
    std::copy_n(trace.q.begin(), samples_used_, row + samples_used_);
    return;
  }
  // One reused baseband channel: demodulate and score qubit by qubit.
  if (scratch.baseband.empty()) scratch.baseband.resize(1);
  BasebandTrace& baseband = scratch.baseband.front();
  for (std::size_t q = 0; q < n_qubits_; ++q) {
    demod_.demodulate_into(trace, q, samples_used_, baseband);
    scratch.qubit_features.clear();
    bank_.bank(q).features(baseband, scratch.qubit_features);
    row = std::copy(scratch.qubit_features.begin(),
                    scratch.qubit_features.end(), row);
  }
}

void JointHeadDiscriminator::standardized_into(
    const IqTrace& trace, InferenceScratch& scratch) const {
  scratch.features.resize(feature_dim());
  features_into(trace, scratch, scratch.features.data());
  normalizer_.apply(scratch.features);
}

void JointHeadDiscriminator::classify_into(const IqTrace& trace,
                                           InferenceScratch& scratch,
                                           std::span<int> out) const {
  MLQR_CHECK(out.size() == n_qubits_);
  standardized_into(trace, scratch);
  const int joint = model_.predict_reusing(scratch.features, scratch.logits,
                                           scratch.activations);
  decode_joint_into(static_cast<std::size_t>(joint), kNumLevels, out);
}

float JointHeadDiscriminator::classify_scored_into(const IqTrace& trace,
                                                   InferenceScratch& scratch,
                                                   std::span<int> out) const {
  MLQR_CHECK(out.size() == n_qubits_);
  standardized_into(trace, scratch);
  float p_max = 0.0f;
  const int joint = model_.predict_scored_reusing(
      scratch.features, scratch.logits, scratch.activations, p_max);
  decode_joint_into(static_cast<std::size_t>(joint), kNumLevels, out);
  return p_max;
}

void JointHeadDiscriminator::classify_batch_into(
    std::size_t lo, std::size_t hi, const ShotFrameAt& frame_at,
    InferenceScratch& scratch, const ShotLabelsAt& labels_at) const {
  const std::size_t dim = feature_dim();
  // Tile so the raw-trace feature rows (1000 floats each for the paper's
  // 500-sample window) stay cache-resident next to the first hidden layer.
  constexpr std::size_t kBatchTile = 32;
  for (std::size_t base = lo; base < hi; base += kBatchTile) {
    const std::size_t tile = std::min(kBatchTile, hi - base);
    scratch.batch_features.resize(tile * dim);
    for (std::size_t s = 0; s < tile; ++s)
      features_into(frame_at(base + s), scratch,
                    scratch.batch_features.data() + s * dim);
    normalizer_.apply(scratch.batch_features);
    scratch.batch_labels.resize(tile);
    model_.classify_batch_into(tile, scratch.batch_features.data(),
                               scratch.batch_act_a, scratch.batch_act_b,
                               scratch.batch_labels.data(), 1);
    for (std::size_t s = 0; s < tile; ++s) {
      const std::span<int> out = labels_at(base + s);
      MLQR_CHECK(out.size() == n_qubits_);
      decode_joint_into(static_cast<std::size_t>(scratch.batch_labels[s]),
                        kNumLevels, out);
    }
  }
}

void JointHeadDiscriminator::save(std::ostream& os) const {
  io::write_u32(os, static_cast<std::uint32_t>(kNumLevels));
  io::write_u64(os, n_qubits_);
  io::write_u64(os, samples_used_);
  if (source_ == JointHeadSource::kFilters) {
    demod_.save(os);
    bank_.save(os);
  }
  normalizer_.save(os);
  model_.save(os);
}

JointHeadDiscriminator JointHeadDiscriminator::load(std::istream& is,
                                                    JointHeadSource source) {
  JointHeadDiscriminator d;
  d.source_ = source;
  const std::string name = d.name();
  const std::uint32_t n_levels = io::read_u32(is);
  MLQR_CHECK_MSG(n_levels == static_cast<std::uint32_t>(kNumLevels),
                 "corrupt " << name << " snapshot: " << n_levels << " levels");
  d.n_qubits_ = io::read_count(is, 4096);
  d.samples_used_ = io::read_count(is);
  MLQR_CHECK_MSG(d.n_qubits_ > 0 && d.samples_used_ > 0,
                 "corrupt " << name << " snapshot dims");
  if (source == JointHeadSource::kFilters) {
    d.demod_ = Demodulator::load(is);
    d.bank_ = ChipMfBank::load(is);
    // Every index the filter path takes must be provably in range before
    // the discriminator is handed out.
    MLQR_CHECK_MSG(d.demod_.num_qubits() == d.n_qubits_ &&
                       d.bank_.num_qubits() == d.n_qubits_,
                   name << " snapshot qubit counts disagree (header "
                        << d.n_qubits_ << ", demod " << d.demod_.num_qubits()
                        << ", bank " << d.bank_.num_qubits() << ')');
    for (std::size_t q = 0; q < d.n_qubits_; ++q)
      for (std::size_t f = 0; f < d.bank_.bank(q).feature_count(); ++f)
        MLQR_CHECK_MSG(
            d.bank_.bank(q).filter(f).length() == d.samples_used_,
            name << " snapshot kernel length does not match its window");
  }
  d.normalizer_ = FeatureNormalizer::load(is);
  d.model_ = Mlp::load(is);

  // The source's layout fixes the input width, and the head must be
  // exactly k^n wide (joint_class_count throws on overflow, so a hostile
  // qubit count dies here rather than sizing anything).
  const std::size_t dim = d.feature_dim();
  MLQR_CHECK_MSG(dim > 0 && d.normalizer_.dim() == dim &&
                     d.model_.input_size() == dim,
                 name << " snapshot feature dims disagree (layout " << dim
                      << ", normalizer " << d.normalizer_.dim() << ", head "
                      << d.model_.input_size() << ')');
  MLQR_CHECK_MSG(
      d.model_.output_size() == joint_class_count(d.n_qubits_, kNumLevels),
      name << " snapshot head does not match its qubit/level counts");
  return d;
}

}  // namespace mlqr
