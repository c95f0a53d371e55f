#include "discrim/proposed.h"

#include <algorithm>

#include "common/error.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "discrim/training.h"

namespace mlqr {

std::vector<std::size_t> proposed_head_sizes(std::size_t features,
                                             std::size_t levels) {
  return {features, std::max<std::size_t>(features / 2, 4),
          std::max<std::size_t>(features / 4, 4), levels};
}

ProposedDiscriminator ProposedDiscriminator::train(
    const ShotSet& shots, std::span<const int> labels_flat,
    std::span<const std::size_t> train_idx, const ChipProfile& chip,
    const ProposedConfig& cfg) {
  ProposedDiscriminator d;
  d.demod_ = Demodulator(chip);
  d.samples_used_ = chip.window_samples(cfg.duration_ns);
  FilterFeatures ff = train_filter_features(
      shots, labels_flat, train_idx, d.demod_, d.samples_used_, cfg.mf);
  d.bank_ = std::move(ff.bank);
  d.normalizer_ = std::move(ff.normalizer);

  // One small head per qubit, every head reading the merged features.
  const std::size_t n_qubits = shots.n_qubits;
  const std::vector<std::size_t> sizes =
      proposed_head_sizes(d.bank_.total_features(), kNumLevels);

  // Every head draws its initial weights from init_rng in qubit order, so
  // the draws stay serial; the heads then train side by side within the
  // trainer's worker budget (each head's own gradient fan-out nests inside
  // it). Training is bit-identical for every budget, so the heads are too.
  Rng init_rng(cfg.trainer.seed);
  d.models_.reserve(n_qubits);
  for (std::size_t q = 0; q < n_qubits; ++q)
    d.models_.emplace_back(sizes).init_weights(init_rng);
  parallel_for_slots(
      0, n_qubits, cfg.trainer.threads,
      [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t q = lo; q < hi; ++q) {
          TrainerConfig tcfg = cfg.trainer;
          tcfg.seed = cfg.trainer.seed + 1000 * (q + 1);
          tcfg.class_weights =
              inverse_frequency_weights(ff.labels[q], kNumLevels);
          train_classifier(d.models_[q], ff.train, ff.labels[q], tcfg);
        }
      });

  // The inference front-end: every kernel pre-rotated by its qubit's LO so
  // classify_into touches the raw trace exactly once.
  d.fused_ =
      FusedFrontend::build(d.demod_, d.bank_, d.normalizer_, d.samples_used_);
  return d;
}

void ProposedDiscriminator::save(std::ostream& os) const {
  MLQR_CHECK_MSG(!models_.empty(), "cannot save an untrained discriminator");
  io::write_u64(os, samples_used_);
  demod_.save(os);
  bank_.save(os);
  normalizer_.save(os);
  fused_.save(os);
  io::write_u64(os, models_.size());
  for (const Mlp& m : models_) m.save(os);
}

ProposedDiscriminator ProposedDiscriminator::load(std::istream& is) {
  ProposedDiscriminator d;
  d.samples_used_ = io::read_count(is);
  MLQR_CHECK_MSG(d.samples_used_ > 0, "corrupt discriminator: zero samples");
  d.demod_ = Demodulator::load(is);
  d.bank_ = ChipMfBank::load(is);
  d.normalizer_ = FeatureNormalizer::load(is);
  d.fused_ = FusedFrontend::load(is);
  const std::size_t n_models = io::read_count(is, 4096);
  d.models_.reserve(n_models);
  for (std::size_t q = 0; q < n_models; ++q)
    d.models_.push_back(Mlp::load(is));

  // Cross-component consistency: the same checks train() guarantees by
  // construction become hard load-time errors on a mismatched stream.
  const std::size_t n_qubits = d.bank_.num_qubits();
  const std::size_t feat_dim = d.bank_.total_features();
  MLQR_CHECK_MSG(n_models == n_qubits, "snapshot has " << n_models
                     << " heads for " << n_qubits << " qubits");
  MLQR_CHECK_MSG(d.demod_.num_qubits() == n_qubits,
                 "snapshot demodulator has " << d.demod_.num_qubits()
                     << " channels for " << n_qubits << " qubits");
  MLQR_CHECK_MSG(d.normalizer_.dim() == feat_dim,
                 "snapshot normalizer dim " << d.normalizer_.dim()
                     << " != feature dim " << feat_dim);
  MLQR_CHECK_MSG(d.fused_.n_filters() == feat_dim &&
                     d.fused_.n_samples() == d.samples_used_ &&
                     d.fused_.num_qubits() == n_qubits,
                 "snapshot fused front-end does not match the bank ("
                     << d.fused_.n_filters() << " filters, "
                     << d.fused_.n_samples() << " samples)");
  for (const Mlp& m : d.models_) {
    MLQR_CHECK_MSG(m.input_size() == feat_dim,
                   "snapshot head reads " << m.input_size()
                       << " features, front-end emits " << feat_dim);
    MLQR_CHECK_MSG(m.output_size() == static_cast<std::size_t>(kNumLevels),
                   "snapshot head emits " << m.output_size() << " levels");
  }
  for (std::size_t q = 0; q < n_qubits; ++q)
    MLQR_CHECK_MSG(d.bank_.bank(q).filter(0).length() == d.samples_used_,
                   "snapshot kernels cover "
                       << d.bank_.bank(q).filter(0).length()
                       << " samples, window is " << d.samples_used_);
  return d;
}

std::size_t ProposedDiscriminator::feature_dim() const {
  return bank_.total_features();
}

std::size_t ProposedDiscriminator::parameter_count() const {
  std::size_t n = 0;
  for (const Mlp& m : models_) n += m.parameter_count();
  return n;
}

std::vector<float> ProposedDiscriminator::features(
    const IqTrace& trace) const {
  InferenceScratch scratch;
  features_into(trace, scratch);
  return std::move(scratch.features);
}

void ProposedDiscriminator::features_into(const IqTrace& trace,
                                          InferenceScratch& scratch) const {
  fused_.features_into(trace, scratch);
}

void ProposedDiscriminator::features_into_reference(
    const IqTrace& trace, InferenceScratch& scratch) const {
  scratch.baseband.resize(num_qubits());
  for (std::size_t q = 0; q < num_qubits(); ++q)
    demod_.demodulate_into(trace, q, samples_used_, scratch.baseband[q]);
  scratch.features.clear();
  bank_.features(scratch.baseband, scratch.features);
  normalizer_.apply(scratch.features);
}

void ProposedDiscriminator::classify_into(const IqTrace& trace,
                                          InferenceScratch& scratch,
                                          std::span<int> out) const {
  MLQR_CHECK(out.size() == models_.size());
  features_into(trace, scratch);
  for (std::size_t q = 0; q < models_.size(); ++q)
    out[q] = models_[q].predict_reusing(scratch.features, scratch.logits,
                                        scratch.activations);
}

float ProposedDiscriminator::classify_scored_into(const IqTrace& trace,
                                                  InferenceScratch& scratch,
                                                  std::span<int> out) const {
  MLQR_CHECK(out.size() == models_.size());
  features_into(trace, scratch);
  float total = 0.0f;
  for (std::size_t q = 0; q < models_.size(); ++q) {
    float p_max = 0.0f;
    out[q] = models_[q].predict_scored_reusing(scratch.features, scratch.logits,
                                               scratch.activations, p_max);
    total += p_max;
  }
  return total / static_cast<float>(models_.size());
}

void ProposedDiscriminator::classify_batch_into(
    std::size_t lo, std::size_t hi, const ShotFrameAt& frame_at,
    InferenceScratch& scratch, const ShotLabelsAt& labels_at) const {
  const std::size_t n_qubits = models_.size();
  const std::size_t feat_dim = feature_dim();
  // Tile so the activation matrices stay cache-resident: 128 rows of 45
  // features is ~23 KiB, comfortably inside L2 next to the weights.
  constexpr std::size_t kBatchTile = 128;
  for (std::size_t base = lo; base < hi; base += kBatchTile) {
    const std::size_t tile = std::min(kBatchTile, hi - base);
    scratch.batch_features.resize(tile * feat_dim);
    const IqTrace* frames[kBatchTile];
    for (std::size_t s = 0; s < tile; ++s) frames[s] = &frame_at(base + s);
    fused_.features_block_into(tile, frames, scratch.batch_features.data(),
                               feat_dim);
    scratch.batch_labels.resize(tile * n_qubits);
    for (std::size_t q = 0; q < n_qubits; ++q)
      models_[q].classify_batch_into(tile, scratch.batch_features.data(),
                                     scratch.batch_act_a, scratch.batch_act_b,
                                     scratch.batch_labels.data() + q,
                                     n_qubits);
    for (std::size_t s = 0; s < tile; ++s) {
      const std::span<int> out = labels_at(base + s);
      MLQR_CHECK(out.size() == n_qubits);
      std::copy_n(scratch.batch_labels.data() + s * n_qubits, n_qubits,
                  out.begin());
    }
  }
}

}  // namespace mlqr
