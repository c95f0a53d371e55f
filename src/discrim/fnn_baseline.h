// FNN baseline (Lienhard et al. [1], paper SSIV-B, Fig 2 top).
//
// A single large feed-forward network consumes the *raw* multiplexed ADC
// trace — 500 I + 500 Q samples, no demodulation — and emits one softmax
// over all k^n joint register states (243 for five qutrits). High capacity
// lets it learn crosstalk and error signatures directly, but the
// output-exponential head makes it ~100x larger than the proposed design
// and infeasible to deploy on an FPGA (Fig 1(d)).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "discrim/inference_scratch.h"
#include "discrim/shot_set.h"
#include "nn/mlp.h"
#include "nn/normalizer.h"
#include "nn/trainer.h"
#include "sim/chip_profile.h"

namespace mlqr {

struct FnnConfig {
  /// Hidden layer widths per the published design.
  std::vector<std::size_t> hidden{500, 250};
  static TrainerConfig default_trainer() {
    TrainerConfig t;
    t.epochs = 12;
    t.learning_rate = 1e-3f;
    t.seed = 41;
    return t;
  }
  TrainerConfig trainer = default_trainer();
  /// Inverse-frequency weighting of the joint classes (capped). The paper
  /// trains on 1.6M traces where leakage-bearing joint classes have
  /// thousands of examples; at this repo's ~100x smaller dataset the same
  /// classes have a handful, so weighting compensates for scale (applied
  /// identically to HERQULES). This is a deviation from the paper, whose
  /// baselines train unweighted.
  bool balance_classes = true;
  float class_weight_cap = 64.0f;
};

class FnnDiscriminator {
 public:
  static FnnDiscriminator train(const ShotSet& shots,
                                std::span<const int> labels_flat,
                                std::span<const std::size_t> train_idx,
                                const ChipProfile& chip, const FnnConfig& cfg);

  /// Allocation-free classify (see InferenceScratch). `out` must hold one
  /// entry per qubit.
  void classify_into(const IqTrace& trace, InferenceScratch& scratch,
                     std::span<int> out) const;

  /// Batched classify over shots [lo, hi): raw I/Q feature rows gathered
  /// into a tile in `scratch`, the whole tile standardized in one
  /// normalizer pass (per-row affine, so identical to the per-shot path),
  /// the joint head run over the tile in shot lanes
  /// (Mlp::classify_batch_into, bit-identical logits), then each joint
  /// class base-k decoded into `labels_at(s)`. Recalibrated FNN shards
  /// serve at batched speed like the Proposed family. Thread-safe for
  /// distinct scratches.
  void classify_batch_into(std::size_t lo, std::size_t hi,
                           const ShotFrameAt& frame_at,
                           InferenceScratch& scratch,
                           const ShotLabelsAt& labels_at) const;

  /// classify_into plus the softmax confidence of the winning joint class,
  /// in (0, 1]. Labels are bit-identical to classify_into — the score is a
  /// drift-monitoring side channel, not an alternative decision rule.
  float classify_scored_into(const IqTrace& trace, InferenceScratch& scratch,
                             std::span<int> out) const;

  std::string name() const { return "FNN"; }

  std::size_t num_qubits() const { return n_qubits_; }
  std::size_t samples_used() const { return samples_used_; }
  std::size_t parameter_count() const { return model_.parameter_count(); }
  const Mlp& model() const { return model_; }

  /// Binary little-endian persistence of the inference state (level count,
  /// dims, normalizer, network) — the FNN's calibration snapshot payload.
  /// The level count is always kNumLevels; load rejects any other. Training
  /// config does not travel. load throws mlqr::Error on any corrupt or
  /// inconsistent stream.
  void save(std::ostream& os) const;
  static FnnDiscriminator load(std::istream& is);

 private:
  /// Raw-trace feature vector [I(0..n-1), Q(0..n-1)] written into a reused
  /// buffer — the single source of truth shared by training and the
  /// scratch inference path.
  void raw_features_into(const IqTrace& trace, std::vector<float>& x) const;

  std::size_t n_qubits_ = 0;
  std::size_t samples_used_ = 0;
  FeatureNormalizer normalizer_;
  Mlp model_;
};

}  // namespace mlqr
