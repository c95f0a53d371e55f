// HERQULES baseline (Maurya et al., ISCA'23; paper SSIV-B, Fig 2 bottom).
//
// Demodulated traces pass through per-qubit matched filters — qubit-state
// and relaxation filters only (no excitation filters) — and a single joint
// NN classifies the whole register: input 2n features at two levels, 6n at
// three, output k^n. Excellent for two-level readout, but at k=3 the
// 243-way joint head must be trained from data where most leakage-bearing
// joint classes have few or zero examples, and the shared softmax drags
// every qubit's marginal down — the collapse in the paper's Table II.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "discrim/inference_scratch.h"
#include "discrim/shot_set.h"
#include "dsp/demodulator.h"
#include "mf/mf_bank.h"
#include "nn/mlp.h"
#include "nn/normalizer.h"
#include "nn/trainer.h"
#include "sim/chip_profile.h"

namespace mlqr {

struct HerqulesConfig {
  static TrainerConfig default_trainer() {
    TrainerConfig t;
    t.epochs = 30;
    t.learning_rate = 1e-3f;
    t.seed = 53;
    return t;
  }
  TrainerConfig trainer = default_trainer();
  /// Hidden widths of the joint head (published design uses a compact
  /// pyramid; 30 -> 60 -> 120 -> 243 at three levels).
  std::vector<std::size_t> hidden{60, 120};
  /// Capped inverse-frequency joint-class weighting (same scale
  /// compensation as FnnConfig::balance_classes).
  bool balance_classes = true;
  float class_weight_cap = 64.0f;
};

class HerqulesDiscriminator {
 public:
  static HerqulesDiscriminator train(const ShotSet& shots,
                                     std::span<const int> labels_flat,
                                     std::span<const std::size_t> train_idx,
                                     const ChipProfile& chip,
                                     const HerqulesConfig& cfg);

  /// Allocation-free classify (see InferenceScratch). `out` must hold one
  /// entry per qubit.
  void classify_into(const IqTrace& trace, InferenceScratch& scratch,
                     std::span<int> out) const;

  std::string name() const { return "HERQULES"; }

  std::size_t num_qubits() const { return n_qubits_; }
  std::size_t samples_used() const { return samples_used_; }
  std::size_t parameter_count() const { return model_.parameter_count(); }
  const Mlp& model() const { return model_; }
  const ChipMfBank& mf_bank() const { return bank_; }

  /// Binary little-endian persistence of the inference state (level count,
  /// dims, demodulator, filter bank, normalizer, joint head) — the
  /// HERQULES calibration snapshot payload. The level count is always
  /// kNumLevels; load rejects any other. load throws mlqr::Error on any
  /// corrupt or cross-component-inconsistent stream.
  void save(std::ostream& os) const;
  static HerqulesDiscriminator load(std::istream& is);

 private:
  std::size_t n_qubits_ = 0;
  std::size_t samples_used_ = 0;
  Demodulator demod_;
  ChipMfBank bank_;
  FeatureNormalizer normalizer_;
  Mlp model_;
};

}  // namespace mlqr
