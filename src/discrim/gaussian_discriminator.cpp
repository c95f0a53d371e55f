#include "discrim/gaussian_discriminator.h"

#include "common/error.h"
#include "common/serialize.h"
#include "discrim/iq_features.h"

namespace mlqr {

namespace {

/// Features per qubit: the MTV point.
constexpr std::size_t kFeatureDim = 2;

}  // namespace

GaussianShotDiscriminator GaussianShotDiscriminator::train(
    const ShotSet& shots, std::span<const int> labels_flat,
    std::span<const std::size_t> train_idx, const ChipProfile& chip,
    GaussianKind kind) {
  shots.validate();
  MLQR_CHECK(labels_flat.size() == shots.size() * shots.n_qubits);
  MLQR_CHECK(!train_idx.empty());

  GaussianShotDiscriminator d;
  d.kind_ = kind;
  d.demod_ = Demodulator(chip);
  d.samples_used_ = chip.n_samples;

  for (std::size_t q = 0; q < shots.n_qubits; ++q) {
    const std::vector<BasebandTrace> baseband =
        demodulate_subset(shots, train_idx, d.demod_, q, d.samples_used_);
    std::vector<double> features;
    features.reserve(train_idx.size() * kFeatureDim);
    std::vector<int> labels;
    labels.reserve(train_idx.size());
    for (std::size_t i = 0; i < train_idx.size(); ++i) {
      const std::vector<double> f = mtv_features(baseband[i]);
      features.insert(features.end(), f.begin(), f.end());
      labels.push_back(labels_flat[train_idx[i] * shots.n_qubits + q]);
    }
    d.per_qubit_.push_back(GaussianClassifier::fit(
        features, kFeatureDim, labels, kNumLevels, kind));
  }
  return d;
}

void GaussianShotDiscriminator::classify_into(const IqTrace& trace,
                                              InferenceScratch& scratch,
                                              std::span<int> out) const {
  MLQR_CHECK(out.size() == per_qubit_.size());
  if (scratch.baseband.empty()) scratch.baseband.resize(1);
  BasebandTrace& baseband = scratch.baseband.front();
  for (std::size_t q = 0; q < per_qubit_.size(); ++q) {
    demod_.demodulate_into(trace, q, samples_used_, baseband);
    out[q] = per_qubit_[q].predict(mtv_features(baseband));
  }
}

std::string GaussianShotDiscriminator::name() const {
  return kind_ == GaussianKind::kLda ? "LDA" : "QDA";
}

void GaussianShotDiscriminator::save(std::ostream& os) const {
  io::write_u8(os, kind_ == GaussianKind::kQda ? 1 : 0);
  // The retired early/late split flag keeps its wire byte, always false.
  io::write_bool(os, false);
  io::write_u64(os, samples_used_);
  demod_.save(os);
  io::write_u64(os, per_qubit_.size());
  for (const GaussianClassifier& g : per_qubit_) g.save(os);
}

GaussianShotDiscriminator GaussianShotDiscriminator::load(std::istream& is) {
  GaussianShotDiscriminator d;
  const std::uint8_t kind = io::read_u8(is);
  MLQR_CHECK_MSG(kind <= 1, "corrupt Gaussian discriminator kind "
                                << static_cast<int>(kind));
  d.kind_ = kind == 1 ? GaussianKind::kQda : GaussianKind::kLda;
  MLQR_CHECK_MSG(!io::read_bool(is),
                 "Gaussian discriminator snapshot asks for the retired "
                 "split-window features");
  d.samples_used_ = io::read_count(is);
  MLQR_CHECK_MSG(d.samples_used_ > 0, "corrupt Gaussian discriminator window");
  d.demod_ = Demodulator::load(is);
  const std::size_t n_qubits = io::read_count(is, 4096);
  MLQR_CHECK_MSG(n_qubits > 0 && n_qubits == d.demod_.num_qubits(),
                 "Gaussian discriminator qubit counts disagree (payload "
                     << n_qubits << ", demod " << d.demod_.num_qubits()
                     << ')');
  d.per_qubit_.reserve(n_qubits);
  for (std::size_t q = 0; q < n_qubits; ++q) {
    GaussianClassifier g = GaussianClassifier::load(is);
    // Every per-qubit classifier must share the discriminator's kind and
    // consume exactly the feature layout classify_into extracts.
    MLQR_CHECK_MSG(g.kind() == d.kind_ && g.dim() == kFeatureDim,
                   "Gaussian discriminator classifier " << q
                       << " does not match the discriminator's kind/layout");
    d.per_qubit_.push_back(std::move(g));
  }
  return d;
}

}  // namespace mlqr
