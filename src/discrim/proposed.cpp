#include "discrim/proposed.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/parallel.h"
#include "common/serialize.h"

namespace mlqr {

ProposedDiscriminator ProposedDiscriminator::train(
    const ShotSet& shots, std::span<const int> labels_flat,
    std::span<const std::size_t> train_idx, const ChipProfile& chip,
    const ProposedConfig& cfg) {
  shots.validate();
  MLQR_CHECK(labels_flat.size() == shots.size() * shots.n_qubits);
  MLQR_CHECK(!train_idx.empty());
  MLQR_CHECK(shots.n_qubits == chip.num_qubits());

  ProposedDiscriminator d;
  d.cfg_ = cfg;
  d.demod_ = Demodulator(chip);
  d.samples_used_ = chip.window_samples(cfg.duration_ns);

  const std::size_t n_qubits = shots.n_qubits;
  const std::size_t per_q = cfg.mf.filters_per_qubit();
  MLQR_CHECK_MSG(per_q > 0, "at least one filter group must be enabled");
  const std::size_t feat_dim = per_q * n_qubits;
  const std::size_t n_train = train_idx.size();

  // Train banks and fill the feature matrix qubit-by-qubit: qubit q's bank
  // only needs qubit q's baseband traces, so peak memory is one channel's
  // baseband (the cross-fit folds read it in place rather than copying).
  // Within a qubit the work fans out on the shared pool: the full bank and
  // both fold banks train side by side, then the full-bank scoring splits
  // over shots. Every task writes its own outputs, so the result does not
  // depend on the pool size.
  // NN training features are *cross-fitted* (kernels from the other fold)
  // so rare-|2> kernel overfit cannot leak into the classifier thresholds;
  // inference uses the bank trained on all data.
  std::vector<float> features(n_train * feat_dim, 0.0f);
  std::vector<float> full_features(n_train * feat_dim, 0.0f);
  std::vector<std::vector<int>> labels_per_qubit(n_qubits);
  std::vector<QubitMfBank> banks;
  banks.reserve(n_qubits);
  for (std::size_t q = 0; q < n_qubits; ++q) {
    const std::vector<BasebandTrace> baseband =
        demodulate_subset(shots, train_idx, d.demod_, q, d.samples_used_);
    std::vector<int>& labels = labels_per_qubit[q];
    labels.reserve(n_train);
    for (std::size_t i = 0; i < n_train; ++i)
      labels.push_back(labels_flat[train_idx[i] * n_qubits + q]);

    std::vector<float> xfit;
    QubitMfBank& bank = banks.emplace_back();
    parallel_for(0, 2, [&](std::size_t task) {
      if (task == 0)
        bank = QubitMfBank::train(baseband, labels, d.samples_used_, cfg.mf);
      else
        xfit = cross_fit_features(baseband, labels, d.samples_used_, cfg.mf);
    });
    parallel_for_chunked(0, n_train, [&](std::size_t lo, std::size_t hi) {
      std::vector<float> scratch;
      for (std::size_t i = lo; i < hi; ++i) {
        std::copy(xfit.begin() + i * per_q, xfit.begin() + (i + 1) * per_q,
                  features.begin() + i * feat_dim + q * per_q);
        scratch.clear();
        bank.features(baseband[i], scratch);
        std::copy(scratch.begin(), scratch.end(),
                  full_features.begin() + i * feat_dim + q * per_q);
      }
    });
  }
  d.bank_.adopt(cfg.mf, std::move(banks));

  // Two normalizers: the NN trains on cross-fitted features standardized
  // by their own statistics; inference standardizes the full-bank features
  // by *theirs*. Z-scoring each version separately absorbs the affine
  // calibration drift between fold banks and the full bank (noticeable for
  // kernels fit on a handful of mined |2> traces).
  FeatureNormalizer train_norm = FeatureNormalizer::fit(features, feat_dim);
  train_norm.apply(features);
  d.normalizer_ = FeatureNormalizer::fit(full_features, feat_dim);

  // One small head per qubit, every head reading the merged features.
  std::vector<std::size_t> sizes{feat_dim};
  if (cfg.hidden.empty()) {
    sizes.push_back(std::max<std::size_t>(feat_dim / 2, 4));
    sizes.push_back(std::max<std::size_t>(feat_dim / 4, 4));
  } else {
    sizes.insert(sizes.end(), cfg.hidden.begin(), cfg.hidden.end());
  }
  sizes.push_back(static_cast<std::size_t>(kNumLevels));

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
              inverse_frequency_weights(labels_per_qubit[q], kNumLevels);
          train_classifier(d.models_[q], features, labels_per_qubit[q], tcfg);
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
  d.cfg_.mf = d.bank_.config();
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
