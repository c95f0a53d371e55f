#include "discrim/fnn_baseline.h"

#include <algorithm>

#include "common/error.h"
#include "common/serialize.h"
#include "discrim/joint_label.h"
#include "discrim/training.h"

namespace mlqr {

void FnnDiscriminator::raw_features_into(const IqTrace& trace,
                                         std::vector<float>& x) const {
  MLQR_CHECK(trace.size() >= samples_used_);
  x.clear();
  x.reserve(2 * samples_used_);
  x.insert(x.end(), trace.i.begin(), trace.i.begin() + samples_used_);
  x.insert(x.end(), trace.q.begin(), trace.q.begin() + samples_used_);
}

FnnDiscriminator FnnDiscriminator::train(const ShotSet& shots,
                                         std::span<const int> labels_flat,
                                         std::span<const std::size_t> train_idx,
                                         const ChipProfile& chip,
                                         const FnnConfig& cfg) {
  shots.validate();
  MLQR_CHECK(labels_flat.size() == shots.size() * shots.n_qubits);
  MLQR_CHECK(!train_idx.empty());

  FnnDiscriminator d;
  d.n_qubits_ = shots.n_qubits;
  d.samples_used_ = chip.n_samples;

  const std::size_t in_dim = 2 * d.samples_used_;
  std::vector<float> features(train_idx.size() * in_dim);
  std::vector<float> x;
  for (std::size_t i = 0; i < train_idx.size(); ++i) {
    d.raw_features_into(shots.traces[train_idx[i]], x);
    std::copy(x.begin(), x.end(), features.begin() + i * in_dim);
  }

  d.normalizer_ = FeatureNormalizer::fit(features, in_dim);
  d.normalizer_.apply(features);
  d.model_ = train_joint_head(
      features, labels_flat, train_idx, d.n_qubits_, cfg.hidden, cfg.trainer,
      cfg.trainer.seed,
      cfg.balance_classes ? std::optional(cfg.class_weight_cap) : std::nullopt);
  return d;
}

void FnnDiscriminator::classify_into(const IqTrace& trace,
                                     InferenceScratch& scratch,
                                     std::span<int> out) const {
  MLQR_CHECK(out.size() == n_qubits_);
  std::vector<float>& x = scratch.features;
  raw_features_into(trace, x);
  normalizer_.apply(x);
  const int joint =
      model_.predict_reusing(x, scratch.logits, scratch.activations);
  decode_joint_into(static_cast<std::size_t>(joint), kNumLevels, out);
}

void FnnDiscriminator::classify_batch_into(
    std::size_t lo, std::size_t hi, const ShotFrameAt& frame_at,
    InferenceScratch& scratch, const ShotLabelsAt& labels_at) const {
  const std::size_t in_dim = 2 * samples_used_;
  // Tile so the raw-trace feature rows (1000 floats each for the paper's
  // 500-sample window) stay cache-resident next to the first hidden layer.
  constexpr std::size_t kBatchTile = 32;
  for (std::size_t base = lo; base < hi; base += kBatchTile) {
    const std::size_t tile = std::min(kBatchTile, hi - base);
    scratch.batch_features.resize(tile * in_dim);
    for (std::size_t s = 0; s < tile; ++s) {
      const IqTrace& trace = frame_at(base + s);
      MLQR_CHECK(trace.size() >= samples_used_);
      float* row = scratch.batch_features.data() + s * in_dim;
      std::copy_n(trace.i.begin(), samples_used_, row);
      std::copy_n(trace.q.begin(), samples_used_, row + samples_used_);
    }
    // One standardization pass over the whole tile: the normalizer is a
    // per-column affine map, so each row comes out identical to the
    // per-shot raw_features_into + apply sequence.
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

float FnnDiscriminator::classify_scored_into(const IqTrace& trace,
                                             InferenceScratch& scratch,
                                             std::span<int> out) const {
  MLQR_CHECK(out.size() == n_qubits_);
  std::vector<float>& x = scratch.features;
  raw_features_into(trace, x);
  normalizer_.apply(x);
  float p_max = 0.0f;
  const int joint = model_.predict_scored_reusing(x, scratch.logits,
                                                  scratch.activations, p_max);
  decode_joint_into(static_cast<std::size_t>(joint), kNumLevels, out);
  return p_max;
}

void FnnDiscriminator::save(std::ostream& os) const {
  io::write_u32(os, static_cast<std::uint32_t>(kNumLevels));
  io::write_u64(os, n_qubits_);
  io::write_u64(os, samples_used_);
  normalizer_.save(os);
  model_.save(os);
}

FnnDiscriminator FnnDiscriminator::load(std::istream& is) {
  FnnDiscriminator d;
  const std::uint32_t n_levels = io::read_u32(is);
  MLQR_CHECK_MSG(n_levels == static_cast<std::uint32_t>(kNumLevels),
                 "corrupt FNN snapshot: " << n_levels << " levels");
  d.n_qubits_ = io::read_count(is, 4096);
  d.samples_used_ = io::read_count(is);
  MLQR_CHECK_MSG(d.n_qubits_ > 0 && d.samples_used_ > 0,
                 "corrupt FNN snapshot dims");
  d.normalizer_ = FeatureNormalizer::load(is);
  d.model_ = Mlp::load(is);
  // Cross-component consistency: the raw-trace layout fixes the input
  // width, and the joint head must be exactly k^n wide
  // (joint_class_count throws on overflow, so a hostile qubit count dies
  // here rather than sizing anything).
  const std::size_t in_dim = 2 * d.samples_used_;
  MLQR_CHECK_MSG(
      d.normalizer_.dim() == in_dim && d.model_.input_size() == in_dim,
      "FNN snapshot input dims disagree (window " << d.samples_used_
          << ", normalizer " << d.normalizer_.dim() << ", network "
          << d.model_.input_size() << ')');
  MLQR_CHECK_MSG(d.model_.output_size() ==
                     joint_class_count(d.n_qubits_, kNumLevels),
                 "FNN snapshot head does not match its qubit/level counts");
  return d;
}

}  // namespace mlqr
