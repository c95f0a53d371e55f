// Integration tests: every discriminator design trained end-to-end on a
// shared small five-qubit dataset, scored against ground truth.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "common/simd.h"
#include "discrim/gaussian_discriminator.h"
#include "discrim/joint_head.h"
#include "discrim/proposed.h"
#include "readout/experiment.h"

namespace mlqr {
namespace {

/// One shared dataset for the whole file (generation is the expensive part).
const ReadoutDataset& shared_dataset() {
  static const ReadoutDataset ds = [] {
    DatasetConfig cfg;
    cfg.shots_per_basis_state = 80;
    cfg.seed = 777;
    return generate_dataset(cfg);
  }();
  return ds;
}

/// 64-bit FNV-1a over a trained design's saved bytes.
template <class Design>
std::uint64_t saved_checksum(const Design& d) {
  std::ostringstream os;
  d.save(os);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : os.str())
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  return h;
}

TEST(Discriminators, ProposedReachesHighComputationalFidelity) {
  const ReadoutDataset& ds = shared_dataset();
  ProposedConfig cfg;
  const ProposedDiscriminator d = ProposedDiscriminator::train(
      ds.shots, ds.training_labels, ds.train_idx, ds.chip, cfg);
  const FidelityReport r = evaluate_on_test(d, ds);

  // Computational-level accuracy must be solid on the good qubits even at
  // this reduced shot count; macro includes the data-starved |2> level.
  for (std::size_t q : {0u, 2u, 4u}) {
    EXPECT_GT(r.per_qubit[q].per_level_accuracy(0), 0.9) << "qubit " << q;
    EXPECT_GT(r.per_qubit[q].per_level_accuracy(1), 0.9) << "qubit " << q;
  }
  EXPECT_GT(r.geometric_mean_fidelity(), 0.6);
  EXPECT_EQ(d.feature_dim(), 45u);
  EXPECT_LT(d.parameter_count(), 8000u);
}

TEST(Discriminators, ProposedDurationTruncationWorks) {
  const ReadoutDataset& ds = shared_dataset();
  ProposedConfig cfg;
  cfg.duration_ns = 600.0;
  const ProposedDiscriminator d = ProposedDiscriminator::train(
      ds.shots, ds.training_labels, ds.train_idx, ds.chip, cfg);
  EXPECT_EQ(d.samples_used(), 300u);
  const FidelityReport r = evaluate_on_test(d, ds);
  EXPECT_GT(r.per_qubit[0].per_level_accuracy(0), 0.85);
}

TEST(Discriminators, QmfOnlyAblationHasFewerFeatures) {
  const ReadoutDataset& ds = shared_dataset();
  ProposedConfig cfg;
  cfg.mf.use_rmf = false;
  cfg.mf.use_emf = false;
  const ProposedDiscriminator d = ProposedDiscriminator::train(
      ds.shots, ds.training_labels, ds.train_idx, ds.chip, cfg);
  EXPECT_EQ(d.feature_dim(), 15u);
}

TEST(Discriminators, ProposedTrainIsIdenticalAcrossThreadBudgets) {
  // The fold banks, the feature scoring and the five heads train side by
  // side; the saved bytes must not depend on the trainer's worker budget.
  const ReadoutDataset& ds = shared_dataset();
  std::string first;
  for (std::size_t threads : {1u, 2u, 4u}) {
    ProposedConfig cfg;
    cfg.trainer.threads = threads;
    std::ostringstream os;
    ProposedDiscriminator::train(ds.shots, ds.training_labels, ds.train_idx,
                                 ds.chip, cfg)
        .save(os);
    if (first.empty())
      first = os.str();
    else
      EXPECT_TRUE(os.str() == first) << "trainer.threads = " << threads;
  }
}

TEST(Discriminators, GaussianDiscriminatorsTrainAndClassify) {
  const ReadoutDataset& ds = shared_dataset();
  const GaussianShotDiscriminator lda = GaussianShotDiscriminator::train(
      ds.shots, ds.training_labels, ds.train_idx, ds.chip, GaussianKind::kLda);
  const FidelityReport r = evaluate_on_test(lda, ds);
  EXPECT_GT(r.geometric_mean_fidelity(), 0.6);
  EXPECT_EQ(lda.name(), "LDA");
}

TEST(Discriminators, FnnTrainsAndDecodesJointClasses) {
  const ReadoutDataset& ds = shared_dataset();
  JointHeadConfig cfg = JointHeadConfig::fnn();
  cfg.trainer.epochs = 6;  // Light training: integration smoke, not a bench.
  const JointHeadDiscriminator fnn = JointHeadDiscriminator::train(
      ds.shots, ds.training_labels, ds.train_idx, ds.chip, cfg);
  EXPECT_EQ(fnn.model().input_size(), 1000u);
  EXPECT_GT(fnn.parameter_count(), 600000u);

  const FidelityReport r = evaluate_on_test(fnn, ds);
  // Even a lightly-trained FNN should beat chance clearly on the
  // computational levels of a good qubit.
  EXPECT_GT(r.per_qubit[0].per_level_accuracy(0), 0.7);
}

TEST(Discriminators, HerqulesTrainsJointHead) {
  const ReadoutDataset& ds = shared_dataset();
  JointHeadConfig cfg = JointHeadConfig::herqules();
  cfg.trainer.epochs = 10;
  const JointHeadDiscriminator h = JointHeadDiscriminator::train(
      ds.shots, ds.training_labels, ds.train_idx, ds.chip, cfg);
  EXPECT_EQ(h.model().input_size(), 30u);   // 6 filters x 5 qubits.
  EXPECT_EQ(h.model().output_size(), 243u);

  const FidelityReport r = evaluate_on_test(h, ds);
  EXPECT_GT(r.per_qubit[0].per_level_accuracy(0), 0.7);
}

TEST(Discriminators, HerqulesTrainIsIdenticalAcrossThreadBudgets) {
  // HERQULES shares the proposed design's filter-feature path (full and fold
  // banks side by side, scoring split over shots); its saved bytes must not
  // depend on the trainer's worker budget either.
  const ReadoutDataset& ds = shared_dataset();
  std::string first;
  for (std::size_t threads : {1u, 2u, 4u}) {
    JointHeadConfig cfg = JointHeadConfig::herqules();
    cfg.trainer.epochs = 4;
    cfg.trainer.threads = threads;
    std::ostringstream os;
    JointHeadDiscriminator::train(ds.shots, ds.training_labels, ds.train_idx,
                                  ds.chip, cfg)
        .save(os);
    if (first.empty())
      first = os.str();
    else
      EXPECT_TRUE(os.str() == first) << "trainer.threads = " << threads;
  }
}

// The saved bytes of a small FNN and a small HERQULES, hashed and pinned on
// every SIMD tier the host runs. The checked-in fuzz corpus pins only the
// wire format; these fail on any change to the baselines' training (filter
// features, joint labels, head sizes, initialisation or class weights).
TEST(Discriminators, FnnChecksumMatchesTheParent) {
#if !defined(__x86_64__) && !defined(_M_X64)
  GTEST_SKIP() << "pinned to x86-64 libm";
#endif
  const ReadoutDataset& ds = shared_dataset();
  JointHeadConfig cfg = JointHeadConfig::fnn();
  cfg.trainer.epochs = 2;
  cfg.hidden = {16};
  cfg.class_weight_cap = 4.0f;  // Low enough to bind, so the cap is pinned.
  for (const simd::Kernels* tier : simd::compiled_tiers()) {
    if (!simd::host_runs(*tier)) continue;
    const simd::ScopedTier pin(*tier);
    const std::uint64_t h = saved_checksum(JointHeadDiscriminator::train(
        ds.shots, ds.training_labels, ds.train_idx, ds.chip, cfg));
    EXPECT_EQ(h, 0xf08354e846074684ull)
        << std::hex << "checksum 0x" << h << " on tier " << tier->name;
  }
}

TEST(Discriminators, HerqulesChecksumMatchesTheParent) {
#if !defined(__x86_64__) && !defined(_M_X64)
  GTEST_SKIP() << "pinned to x86-64 libm";
#endif
  const ReadoutDataset& ds = shared_dataset();
  JointHeadConfig cfg = JointHeadConfig::herqules();
  cfg.trainer.epochs = 4;
  cfg.hidden = {16};
  for (const simd::Kernels* tier : simd::compiled_tiers()) {
    if (!simd::host_runs(*tier)) continue;
    const simd::ScopedTier pin(*tier);
    const std::uint64_t h = saved_checksum(JointHeadDiscriminator::train(
        ds.shots, ds.training_labels, ds.train_idx, ds.chip, cfg));
    EXPECT_EQ(h, 0xc88a77bfe4d6ad00ull)
        << std::hex << "checksum 0x" << h << " on tier " << tier->name;
  }
}

TEST(Discriminators, LeakDetectionRatesComeFromConfusion) {
  FidelityReport r;
  r.per_qubit.resize(1);
  QubitConfusion& c = r.per_qubit[0];
  for (int i = 0; i < 90; ++i) c.add(2, 2);
  for (int i = 0; i < 10; ++i) c.add(2, 1);
  for (int i = 0; i < 990; ++i) c.add(0, 0);
  for (int i = 0; i < 10; ++i) c.add(0, 2);
  const auto [detect, fp] = leak_detection_rates(r);
  EXPECT_NEAR(detect, 0.9, 1e-9);
  EXPECT_NEAR(fp, 10.0 / 1000.0, 1e-9);
}

}  // namespace
}  // namespace mlqr
