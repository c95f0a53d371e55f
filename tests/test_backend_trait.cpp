// The ReadoutBackend trait contract (pipeline/backend_trait.h): every
// discriminator design satisfies the concepts its layer claims, the
// engines stay bit-identical across batch/thread/shard knobs for both the
// float and int16 paths, and the three baseline kinds round-trip through
// the snapshot registry with label equality.
#include "pipeline/backend_trait.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include "discrim/gaussian_discriminator.h"
#include "discrim/joint_head.h"
#include "discrim/proposed.h"
#include "discrim/quantized_proposed.h"
#include "pipeline/snapshot.h"
#include "pipeline/streaming_engine.h"
#include "readout/dataset.h"

namespace mlqr {
namespace {

// ---- concept conformance: compile-time, no fixture needed ---------------

static_assert(ReadoutBackend<ProposedDiscriminator>);
static_assert(ReadoutBackend<QuantizedProposedDiscriminator>);
static_assert(ReadoutBackend<Quantized8ProposedDiscriminator>);
static_assert(ReadoutBackend<JointHeadDiscriminator>);
static_assert(ReadoutBackend<GaussianShotDiscriminator>);
// The type-erased engine stage is itself a ReadoutBackend, so engines can
// be composed (a shard is just another backend).
static_assert(ReadoutBackend<EngineBackend>);

// The three OURS designs and the joint-head baselines (FNN and HERQULES
// are one class) expose the batched entry point; the Gaussians stay
// per-shot and the engine must treat them so.
static_assert(BatchedReadoutBackend<ProposedDiscriminator>);
static_assert(BatchedReadoutBackend<QuantizedProposedDiscriminator>);
static_assert(BatchedReadoutBackend<Quantized8ProposedDiscriminator>);
static_assert(BatchedReadoutBackend<JointHeadDiscriminator>);
static_assert(!BatchedReadoutBackend<GaussianShotDiscriminator>);

// Confidence scoring feeds the streaming drift monitors: the float designs
// with softmax heads report it; the integer datapaths don't (their
// fixed-point logits have no calibrated softmax) and the engine samples
// confidence only on shards that support it.
static_assert(ScoredReadoutBackend<ProposedDiscriminator>);
static_assert(ScoredReadoutBackend<JointHeadDiscriminator>);
static_assert(!ScoredReadoutBackend<QuantizedProposedDiscriminator>);
static_assert(!ScoredReadoutBackend<Quantized8ProposedDiscriminator>);
static_assert(!ScoredReadoutBackend<GaussianShotDiscriminator>);

static_assert(SnapshotableBackend<ProposedDiscriminator>);
static_assert(SnapshotableBackend<QuantizedProposedDiscriminator>);
static_assert(SnapshotableBackend<Quantized8ProposedDiscriminator>);
static_assert(SnapshotableBackend<JointHeadDiscriminator>);
static_assert(SnapshotableBackend<GaussianShotDiscriminator>);
// Type erasure drops persistence: an EngineBackend cannot be snapshotted.
static_assert(!SnapshotableBackend<EngineBackend>);

static_assert(RegisteredSnapshotBackend<ProposedDiscriminator>);
static_assert(RegisteredSnapshotBackend<QuantizedProposedDiscriminator>);
static_assert(RegisteredSnapshotBackend<Quantized8ProposedDiscriminator>);
static_assert(RegisteredSnapshotBackend<JointHeadDiscriminator>);
static_assert(RegisteredSnapshotBackend<GaussianShotDiscriminator>);

// ---- bit-identity across engine knobs -----------------------------------

/// Shared small two-qubit dataset + the full design roster (training
/// dominates this file's runtime, so it happens once).
struct Fixture {
  ReadoutDataset ds;
  ProposedDiscriminator proposed;
  QuantizedProposedDiscriminator quantized;
  Quantized8ProposedDiscriminator quantized8;
  JointHeadDiscriminator fnn;
  JointHeadDiscriminator herqules;
  GaussianShotDiscriminator lda;
  GaussianShotDiscriminator qda;

  static const Fixture& get() {
    static const Fixture fx = [] {
      DatasetConfig cfg;
      cfg.chip = ChipProfile::test_two_qubit();
      cfg.shots_per_basis_state = 120;
      cfg.seed = 20260806;
      ReadoutDataset ds = generate_dataset(cfg);
      ProposedConfig pcfg;
      pcfg.trainer.epochs = 6;
      ProposedDiscriminator p = ProposedDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip, pcfg);
      QuantizedProposedDiscriminator q =
          QuantizedProposedDiscriminator::quantize(p, ds.shots, ds.train_idx);
      Quantized8ProposedDiscriminator q8 =
          Quantized8ProposedDiscriminator::quantize(p, ds.shots, ds.train_idx);
      JointHeadConfig fcfg = JointHeadConfig::fnn();
      fcfg.trainer.epochs = 2;
      JointHeadDiscriminator f = JointHeadDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip, fcfg);
      JointHeadConfig hcfg = JointHeadConfig::herqules();
      hcfg.trainer.epochs = 4;
      JointHeadDiscriminator h = JointHeadDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip, hcfg);
      GaussianShotDiscriminator lda = GaussianShotDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip,
          GaussianKind::kLda);
      GaussianShotDiscriminator qda = GaussianShotDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip,
          GaussianKind::kQda);
      return Fixture{std::move(ds),  std::move(p),   std::move(q),
                     std::move(q8),  std::move(f),   std::move(h),
                     std::move(lda), std::move(qda)};
    }();
    return fx;
  }
};

/// Reference labels: the per-shot classify_into path, one shot at a time.
template <ReadoutBackend D>
std::vector<int> reference_labels(const D& d,
                                  const std::vector<IqTrace>& traces) {
  InferenceScratch scratch;
  std::vector<int> labels(traces.size() * d.num_qubits());
  for (std::size_t s = 0; s < traces.size(); ++s)
    d.classify_into(traces[s], scratch,
                    {labels.data() + s * d.num_qubits(), d.num_qubits()});
  return labels;
}

/// Labels through ReadoutEngine with an explicit worker budget, assembled
/// from sub-batches of at most `batch` shots. Sub-batches under
/// EngineCore::kMinBatchGroup run the engine's per-shot schedule, larger
/// ones its batched schedule — the labels must not depend on which.
std::vector<int> engine_labels(const EngineBackend& backend,
                               const std::vector<IqTrace>& traces,
                               std::size_t batch, std::size_t threads) {
  EngineConfig cfg;
  cfg.threads = threads;
  ReadoutEngine engine(backend, cfg);
  std::vector<int> labels;
  for (std::size_t start = 0; start < traces.size(); start += batch) {
    const std::size_t n = std::min(batch, traces.size() - start);
    const EngineBatch b =
        engine.process_batch({traces.data() + start, n});
    labels.insert(labels.end(), b.labels.begin(), b.labels.end());
  }
  return labels;
}

/// Labels through a StreamingEngine with the given shard count.
std::vector<int> streamed_labels(const EngineBackend& backend,
                                 const std::vector<IqTrace>& traces,
                                 std::size_t shards) {
  StreamingConfig cfg;
  cfg.queue_capacity = traces.size();
  StreamingEngine engine(backend, shards, cfg);
  std::vector<StreamingEngine::Ticket> tickets;
  tickets.reserve(traces.size());
  for (const IqTrace& t : traces) tickets.push_back(*engine.submit(t));
  engine.drain();
  std::vector<int> labels(traces.size() * engine.num_qubits());
  std::vector<int> shot(engine.num_qubits());
  for (std::size_t s = 0; s < tickets.size(); ++s) {
    EXPECT_EQ(engine.wait_result(tickets[s], shot), ShotStatus::kDone);
    std::copy(shot.begin(), shot.end(),
              labels.begin() + s * engine.num_qubits());
  }
  return labels;
}

template <ReadoutBackend D>
void expect_bit_identical_across_knobs(const D& d, const char* what) {
  const std::vector<IqTrace>& traces = Fixture::get().ds.shots.traces;
  const std::vector<int> ref = reference_labels(d, traces);
  // Batches of 1 and 7 stay under kMinBatchGroup (the per-shot arm); 64
  // and the full set reach the batch arm at every worker count here.
  static_assert(EngineCore::kMinBatchGroup > 7 &&
                EngineCore::kMinBatchGroup <= 64 / 4);
  for (std::size_t batch :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, traces.size()})
    for (std::size_t threads : {1u, 2u, 4u})
      EXPECT_EQ(engine_labels(make_backend(d), traces, batch, threads), ref)
          << what << ": batch " << batch << ", " << threads << " threads";
  for (std::size_t shards : {1u, 2u, 3u})
    EXPECT_EQ(streamed_labels(make_backend(d), traces, shards), ref)
        << what << ": " << shards << " shards";
}

TEST(BackendTrait, FloatBitIdenticalAcrossBatchThreadShardGrid) {
  expect_bit_identical_across_knobs(Fixture::get().proposed, "float");
}

TEST(BackendTrait, Int16BitIdenticalAcrossBatchThreadShardGrid) {
  expect_bit_identical_across_knobs(Fixture::get().quantized, "int16");
}

TEST(BackendTrait, Int8BitIdenticalAcrossBatchThreadShardGrid) {
  expect_bit_identical_across_knobs(Fixture::get().quantized8, "int8");
}

TEST(BackendTrait, FnnBitIdenticalAcrossBatchThreadShardGrid) {
  expect_bit_identical_across_knobs(Fixture::get().fnn, "fnn");
}

TEST(BackendTrait, HerqulesBitIdenticalAcrossBatchThreadShardGrid) {
  expect_bit_identical_across_knobs(Fixture::get().herqules, "herqules");
}

/// A frame with one NaN sample must take the same labels through the
/// engine's per-shot arm (groups of 1) and its batch arm (one group of 16):
/// the per-shot and batched float heads share one ReLU, z > 0 ? z : +0, so
/// a NaN pre-activation becomes +0 on both.
template <ReadoutBackend D>
void expect_nan_frame_labels_agree(const D& d, const char* what) {
  const std::vector<IqTrace>& all = Fixture::get().ds.shots.traces;
  std::vector<IqTrace> traces(all.begin(), all.begin() + 16);
  static_assert(EngineCore::kMinBatchGroup <= 16);
  IqTrace& hit = traces[5];
  hit.i[hit.i.size() / 2] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(engine_labels(make_backend(d), traces, 1, 1),
            engine_labels(make_backend(d), traces, traces.size(), 1))
      << what;
}

TEST(BackendTrait, NanSampleLabelsAgreeAcrossEngineArms) {
  expect_nan_frame_labels_agree(Fixture::get().proposed, "float");
  expect_nan_frame_labels_agree(Fixture::get().fnn, "fnn");
  expect_nan_frame_labels_agree(Fixture::get().herqules, "herqules");
}

// ---- the scored contract: same labels, confidence in (0, 1] -------------

template <ScoredReadoutBackend D>
void expect_scored_matches_classify(const D& d, const char* what) {
  const std::vector<IqTrace>& traces = Fixture::get().ds.shots.traces;
  InferenceScratch scratch;
  std::vector<int> plain(d.num_qubits()), scored(d.num_qubits());
  for (const IqTrace& trace : traces) {
    d.classify_into(trace, scratch, plain);
    const float conf = d.classify_scored_into(trace, scratch, scored);
    ASSERT_EQ(scored, plain) << what;
    ASSERT_GT(conf, 0.0f) << what;
    ASSERT_LE(conf, 1.0f) << what;
  }
}

TEST(BackendTrait, ProposedScoredLabelsBitIdentical) {
  expect_scored_matches_classify(Fixture::get().proposed, "proposed");
}

TEST(BackendTrait, FnnScoredLabelsBitIdentical) {
  expect_scored_matches_classify(Fixture::get().fnn, "fnn");
}

TEST(BackendTrait, HerqulesScoredLabelsBitIdentical) {
  expect_scored_matches_classify(Fixture::get().herqules, "herqules");
}

TEST(BackendTrait, ScoredSupportPropagatesThroughErasure) {
  const Fixture& fx = Fixture::get();
  EXPECT_TRUE(make_backend(fx.proposed).supports_scored());
  EXPECT_TRUE(make_backend(fx.fnn).supports_scored());
  EXPECT_FALSE(make_backend(fx.quantized).supports_scored());
  EXPECT_TRUE(BackendSnapshot::wrap(fx.proposed).backend().supports_scored());
  EXPECT_FALSE(BackendSnapshot::wrap(fx.lda).backend().supports_scored());

  // Through the erased layer the score still agrees with the labels.
  const EngineBackend backend = make_backend(fx.proposed);
  InferenceScratch scratch;
  std::vector<int> plain(backend.num_qubits()), scored(backend.num_qubits());
  const IqTrace& trace = fx.ds.shots.traces.front();
  backend.classify_into(trace, scratch, plain);
  const float conf = backend.classify_scored_into(trace, scratch, scored);
  EXPECT_EQ(scored, plain);
  EXPECT_GT(conf, 0.0f);
  EXPECT_LE(conf, 1.0f);
}

// ---- one binder behind make_backend and BackendSnapshot::wrap ----------

/// The non-owning and the owning erasure must expose the same optional
/// paths and serve the same labels through each of them.
template <RegisteredSnapshotBackend D>
void expect_same_binding(const D& d, const char* what) {
  const std::vector<IqTrace>& traces = Fixture::get().ds.shots.traces;
  const EngineBackend plain = make_backend(d);
  const EngineBackend owned = BackendSnapshot::wrap(d).backend();
  EXPECT_EQ(plain.name(), owned.name()) << what;
  EXPECT_EQ(plain.num_qubits(), owned.num_qubits()) << what;
  EXPECT_EQ(plain.supports_batch(), owned.supports_batch()) << what;
  EXPECT_EQ(plain.supports_scored(), owned.supports_scored()) << what;
  EXPECT_EQ(plain.supports_batch(), BatchedReadoutBackend<D>) << what;
  EXPECT_EQ(plain.supports_scored(), ScoredReadoutBackend<D>) << what;

  constexpr std::size_t kShots = 12;
  ASSERT_GE(traces.size(), kShots);
  const std::size_t nq = d.num_qubits();
  const std::vector<int> ref = reference_labels(
      d, std::vector<IqTrace>(traces.begin(), traces.begin() + kShots));
  InferenceScratch scratch;
  for (const EngineBackend* be : {&plain, &owned}) {
    std::vector<int> labels(kShots * nq, -1);
    for (std::size_t s = 0; s < kShots; ++s)
      be->classify_into(traces[s], scratch, {labels.data() + s * nq, nq});
    EXPECT_EQ(labels, ref) << what << " per-shot";
    if (be->supports_scored()) {
      std::fill(labels.begin(), labels.end(), -1);
      for (std::size_t s = 0; s < kShots; ++s)
        be->classify_scored_into(traces[s], scratch,
                                 {labels.data() + s * nq, nq});
      EXPECT_EQ(labels, ref) << what << " scored";
    }
    if (be->supports_batch()) {
      std::fill(labels.begin(), labels.end(), -1);
      be->classify_batch_into(
          0, kShots,
          [&](std::size_t s) -> const IqTrace& { return traces[s]; }, scratch,
          [&](std::size_t s) -> std::span<int> {
            return {labels.data() + s * nq, nq};
          });
      EXPECT_EQ(labels, ref) << what << " batched";
    }
  }
}

TEST(BackendTrait, MakeBackendAndWrapBindTheSamePaths) {
  const Fixture& fx = Fixture::get();
  expect_same_binding(fx.proposed, "float");
  expect_same_binding(fx.quantized, "int16");
  expect_same_binding(fx.quantized8, "int8");
  expect_same_binding(fx.fnn, "fnn");
  expect_same_binding(fx.herqules, "herqules");
  expect_same_binding(fx.lda, "lda");
  expect_same_binding(fx.qda, "qda");
}

// ---- snapshot round trips for the kinds the registry gained -------------

template <RegisteredSnapshotBackend D>
void expect_roundtrip_bit_identical(const D& d, SnapshotKind kind) {
  const Fixture& fx = Fixture::get();
  std::stringstream ss;
  save_backend(ss, d);
  const BackendSnapshot snap = load_backend(ss);
  EXPECT_EQ(snap.kind(), kind);
  EXPECT_EQ(snap.name(), d.name());
  EXPECT_EQ(snap.num_qubits(), d.num_qubits());
  EXPECT_EQ(snap.num_samples(), d.samples_used());
  ASSERT_TRUE(snap.as<D>());
  const std::vector<int> ref = reference_labels(d, fx.ds.shots.traces);
  EXPECT_EQ(engine_labels(snap.backend(), fx.ds.shots.traces,
                          fx.ds.shots.traces.size(), 2),
            ref);

  // Re-serializing the loaded snapshot reproduces the original bytes.
  std::stringstream out;
  snap.save(out);
  std::stringstream orig;
  save_backend(orig, d);
  EXPECT_EQ(out.str(), orig.str());
}

TEST(BackendTrait, SnapshotKindComesFromTheInstance) {
  const Fixture& fx = Fixture::get();
  EXPECT_EQ(SnapshotTraits<ProposedDiscriminator>::kind(fx.proposed),
            SnapshotKind::kFloat);
  EXPECT_EQ(SnapshotTraits<QuantizedProposedDiscriminator>::kind(fx.quantized),
            SnapshotKind::kInt16);
  EXPECT_EQ(
      SnapshotTraits<Quantized8ProposedDiscriminator>::kind(fx.quantized8),
      SnapshotKind::kInt8);
  EXPECT_EQ(SnapshotTraits<JointHeadDiscriminator>::kind(fx.fnn),
            SnapshotKind::kFnn);
  EXPECT_EQ(SnapshotTraits<JointHeadDiscriminator>::kind(fx.herqules),
            SnapshotKind::kHerqules);
  EXPECT_EQ(SnapshotTraits<GaussianShotDiscriminator>::kind(fx.lda),
            SnapshotKind::kGaussian);
  EXPECT_EQ(fx.fnn.name(), "FNN");
  EXPECT_EQ(fx.herqules.name(), "HERQULES");
}

TEST(BackendTrait, Int8SnapshotRoundTrip) {
  expect_roundtrip_bit_identical(Fixture::get().quantized8,
                                 SnapshotKind::kInt8);
}

TEST(BackendTrait, FnnSnapshotRoundTrip) {
  expect_roundtrip_bit_identical(Fixture::get().fnn, SnapshotKind::kFnn);
}

TEST(BackendTrait, HerqulesSnapshotRoundTrip) {
  expect_roundtrip_bit_identical(Fixture::get().herqules,
                                 SnapshotKind::kHerqules);
}

TEST(BackendTrait, LdaSnapshotRoundTrip) {
  expect_roundtrip_bit_identical(Fixture::get().lda, SnapshotKind::kGaussian);
}

TEST(BackendTrait, QdaSnapshotRoundTrip) {
  expect_roundtrip_bit_identical(Fixture::get().qda, SnapshotKind::kGaussian);
}

// A kGaussian header over an LDA payload must still distinguish LDA from
// QDA: the header/payload name cross-check catches a stitched stream.
TEST(BackendTrait, KindByteAloneDoesNotAuthenticateGaussianFlavour) {
  const Fixture& fx = Fixture::get();
  std::stringstream lda_ss, qda_ss;
  save_backend(lda_ss, fx.lda);
  save_backend(qda_ss, fx.qda);
  const std::string lda_bytes = lda_ss.str();
  const std::string qda_bytes = qda_ss.str();
  // Graft the QDA header (through the name field) onto the LDA payload.
  // Header layout: 8 magic + 4 version + 1 kind + 8 + 8 + (8 + name).
  const std::size_t lda_header = 29 + 8 + fx.lda.name().size();
  const std::size_t qda_header = 29 + 8 + fx.qda.name().size();
  const std::string stitched =
      qda_bytes.substr(0, qda_header) + lda_bytes.substr(lda_header);
  std::stringstream ss(stitched);
  EXPECT_THROW(load_backend(ss), Error);
}

TEST(BackendTrait, WrapBuildsOwningBackendWithoutSerialization) {
  const Fixture& fx = Fixture::get();
  EngineBackend backend;
  {
    const BackendSnapshot snap = BackendSnapshot::wrap(fx.lda);
    EXPECT_EQ(snap.kind(), SnapshotKind::kGaussian);
    EXPECT_EQ(snap.name(), fx.lda.name());
    backend = snap.backend();
  }  // The backend must keep the wrapped discriminator alive.
  const std::vector<int> ref =
      reference_labels(fx.lda, fx.ds.shots.traces);
  EXPECT_EQ(engine_labels(backend, fx.ds.shots.traces,
                          fx.ds.shots.traces.size(), 1),
            ref);
}

}  // namespace
}  // namespace mlqr
