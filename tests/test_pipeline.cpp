// The streaming engine's core contract: batching and threading are pure
// performance knobs — labels and metrics are bit-identical whether shots
// stream one at a time on one worker or 1024 at a time across all of them.
#include "pipeline/readout_engine.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "readout/dataset.h"
#include "readout/experiment.h"

namespace mlqr {
namespace {

/// Shared small two-qubit dataset + trained designs (training dominates the
/// file's runtime, so it happens once).
struct Fixture {
  ReadoutDataset ds;
  ProposedDiscriminator proposed;
  GaussianShotDiscriminator lda;

  static const Fixture& get() {
    static const Fixture fx = [] {
      DatasetConfig cfg;
      cfg.chip = ChipProfile::test_two_qubit();
      cfg.shots_per_basis_state = 220;
      cfg.seed = 4242;
      ReadoutDataset ds = generate_dataset(cfg);
      ProposedConfig pcfg;
      pcfg.trainer.epochs = 8;
      ProposedDiscriminator p = ProposedDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip, pcfg);
      GaussianDiscriminatorConfig gcfg;
      GaussianShotDiscriminator g = GaussianShotDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip, gcfg);
      return Fixture{std::move(ds), std::move(p), std::move(g)};
    }();
    return fx;
  }
};

/// One shot through classify_into on a fresh scratch.
template <typename D>
std::vector<int> classify_one(const D& d, const IqTrace& trace) {
  InferenceScratch scratch;
  std::vector<int> out(d.num_qubits());
  d.classify_into(trace, scratch, out);
  return out;
}

/// Reference labels, one shot at a time outside the engine.
std::vector<int> reference_labels(const Fixture& fx) {
  const std::size_t n_qubits = fx.proposed.num_qubits();
  std::vector<int> labels(fx.ds.shots.size() * n_qubits);
  InferenceScratch scratch;
  for (std::size_t s = 0; s < fx.ds.shots.size(); ++s)
    fx.proposed.classify_into(fx.ds.shots.traces[s], scratch,
                              {labels.data() + s * n_qubits, n_qubits});
  return labels;
}

TEST(Pipeline, BatchMatchesPerShotClassify) {
  const Fixture& fx = Fixture::get();
  ReadoutEngine engine(make_backend(fx.proposed));
  const EngineBatch batch = engine.process_batch(fx.ds.shots.traces);
  EXPECT_EQ(batch.n_shots, fx.ds.shots.size());
  EXPECT_EQ(batch.n_qubits, fx.ds.shots.n_qubits);
  EXPECT_EQ(batch.labels, reference_labels(fx));
}

TEST(Pipeline, BatchSizeDoesNotChangeLabels) {
  const Fixture& fx = Fixture::get();
  const std::vector<IqTrace>& traces = fx.ds.shots.traces;
  ReadoutEngine whole(make_backend(fx.proposed));
  const EngineBatch big = whole.process_batch(traces);

  // Stream the same frames in batches of 1 through one persistent engine.
  ReadoutEngine stream(make_backend(fx.proposed));
  std::vector<int> streamed;
  for (const IqTrace& t : traces) {
    const EngineBatch one = stream.process_batch({&t, 1});
    EXPECT_EQ(one.n_shots, 1u);
    streamed.insert(streamed.end(), one.labels.begin(), one.labels.end());
  }
  EXPECT_EQ(big.labels, streamed);
}

TEST(Pipeline, ThreadCountDoesNotChangeLabels) {
  const Fixture& fx = Fixture::get();
  EngineConfig serial;
  serial.threads = 1;
  ReadoutEngine one(make_backend(fx.proposed), serial);

  EngineConfig parallel;
  parallel.threads = 4;
  ReadoutEngine many(make_backend(fx.proposed), parallel);

  const EngineBatch a = one.process_batch(fx.ds.shots.traces);
  const EngineBatch b = many.process_batch(fx.ds.shots.traces);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(Pipeline, FusedFrontendTracksReferenceFeatures) {
  // The fused one-pass float front-end against the unfused reference
  // pipeline (demodulate -> matched filters -> normalizer): same features
  // up to float rounding. The bound is generous relative to float eps
  // because the fused path also swaps the resync'd LO recurrence for the
  // exact polar form.
  const Fixture& fx = Fixture::get();
  ASSERT_TRUE(fx.proposed.fused_frontend().valid());
  EXPECT_EQ(fx.proposed.fused_frontend().n_filters(),
            fx.proposed.feature_dim());
  InferenceScratch fused, reference;
  for (std::size_t s = 0; s < 50; ++s) {
    const IqTrace& tr = fx.ds.shots.traces[s];
    fx.proposed.features_into(tr, fused);
    fx.proposed.features_into_reference(tr, reference);
    ASSERT_EQ(fused.features.size(), reference.features.size());
    for (std::size_t j = 0; j < fused.features.size(); ++j)
      EXPECT_NEAR(fused.features[j], reference.features[j], 5e-3f)
          << "shot " << s << " feature " << j;
  }
}

TEST(Pipeline, FusedFrontendLabelsAgreeWithReference) {
  // Label-level parity: heads fed fused vs reference features must agree
  // on essentially every shot (exact ties can flip under float rounding,
  // so the bound is near-1 rather than equality).
  const Fixture& fx = Fixture::get();
  InferenceScratch fused, reference;
  std::vector<int> out_fused(fx.proposed.num_qubits());
  std::vector<int> out_ref(fx.proposed.num_qubits());
  std::size_t agree = 0, total = 0;
  const std::size_t n_shots = std::min<std::size_t>(200, fx.ds.shots.size());
  for (std::size_t s = 0; s < n_shots; ++s) {
    const IqTrace& tr = fx.ds.shots.traces[s];
    fx.proposed.classify_into(tr, fused, out_fused);
    fx.proposed.features_into_reference(tr, reference);
    for (std::size_t q = 0; q < fx.proposed.num_qubits(); ++q)
      out_ref[q] = fx.proposed.qubit_model(q).predict_reusing(
          reference.features, reference.logits, reference.activations);
    for (std::size_t q = 0; q < out_ref.size(); ++q) {
      agree += out_fused[q] == out_ref[q];
      ++total;
    }
  }
  EXPECT_GE(static_cast<double>(agree) / static_cast<double>(total), 0.995);
}

TEST(Pipeline, EvaluateMatchesClassifierEvaluation) {
  const Fixture& fx = Fixture::get();
  ReadoutEngine engine(make_backend(fx.proposed));
  const FidelityReport via_engine =
      engine.evaluate(fx.ds.shots, fx.ds.test_idx);
  // Independent serial scoring of the per-shot classify_into path.
  FidelityReport via_function;
  via_function.per_qubit.resize(fx.ds.shots.n_qubits);
  for (std::size_t idx : fx.ds.test_idx) {
    const std::vector<int> got =
        classify_one(fx.proposed, fx.ds.shots.traces[idx]);
    for (std::size_t q = 0; q < got.size(); ++q)
      via_function.per_qubit[q].add(fx.ds.shots.label(idx, q), got[q]);
  }
  ASSERT_EQ(via_engine.per_qubit.size(), via_function.per_qubit.size());
  for (std::size_t q = 0; q < via_engine.per_qubit.size(); ++q)
    EXPECT_EQ(via_engine.per_qubit[q].counts, via_function.per_qubit[q].counts)
        << "qubit " << q;
  EXPECT_DOUBLE_EQ(via_engine.geometric_mean_fidelity(),
                   via_function.geometric_mean_fidelity());
}

TEST(Pipeline, GaussianBackendMatchesClassify) {
  const Fixture& fx = Fixture::get();
  ReadoutEngine engine(make_backend(fx.lda));
  const EngineBatch batch = engine.process_batch(fx.ds.shots.traces);
  for (std::size_t s = 0; s < 25; ++s) {
    const std::vector<int> expected =
        classify_one(fx.lda, fx.ds.shots.traces[s]);
    const std::span<const int> got = batch.shot_labels(s);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t q = 0; q < expected.size(); ++q)
      EXPECT_EQ(got[q], expected[q]) << "shot " << s << " qubit " << q;
  }
}

TEST(Pipeline, BatchReportsThroughput) {
  const Fixture& fx = Fixture::get();
  ReadoutEngine engine(make_backend(fx.proposed));
  const EngineBatch batch = engine.process_batch(
      std::span<const IqTrace>(fx.ds.shots.traces.data(), 100));
  EXPECT_EQ(batch.n_shots, 100u);
  EXPECT_GT(batch.shots_per_second(), 0.0);
}

TEST(Pipeline, SummarizeLatencyEmptyIsAllZero) {
  const LatencyStats stats = summarize_latency({});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.p50_us, 0.0);
  EXPECT_EQ(stats.p99_us, 0.0);
  EXPECT_EQ(stats.mean_us, 0.0);
  EXPECT_EQ(stats.max_us, 0.0);
}

TEST(Pipeline, SummarizeLatencySingleSample) {
  // One sample: every quantile interpolates onto the sample itself.
  const LatencyStats stats = summarize_latency({7.5});
  EXPECT_EQ(stats.count, 1u);
  EXPECT_DOUBLE_EQ(stats.p50_us, 7.5);
  EXPECT_DOUBLE_EQ(stats.p99_us, 7.5);
  EXPECT_DOUBLE_EQ(stats.mean_us, 7.5);
  EXPECT_DOUBLE_EQ(stats.max_us, 7.5);
}

TEST(Pipeline, SummarizeLatencyTwoSamplesInterpolates) {
  // Two samples (given unsorted): linear interpolation between them —
  // p50 is the midpoint, p99 sits 99% of the way up.
  const LatencyStats stats = summarize_latency({10.0, 2.0});
  EXPECT_EQ(stats.count, 2u);
  EXPECT_DOUBLE_EQ(stats.p50_us, 6.0);
  EXPECT_DOUBLE_EQ(stats.p99_us, 2.0 + 0.99 * 8.0);
  EXPECT_DOUBLE_EQ(stats.mean_us, 6.0);
  EXPECT_DOUBLE_EQ(stats.max_us, 10.0);
}

TEST(Pipeline, RejectsMismatchedShotSet) {
  const Fixture& fx = Fixture::get();
  ReadoutEngine engine(make_backend(fx.proposed));
  ShotSet wrong;
  wrong.traces.resize(1, IqTrace(8));
  wrong.labels.assign(5, 0);
  wrong.n_qubits = 5;  // Engine is wired for the two-qubit chip.
  const std::size_t subset[] = {0};
  EXPECT_THROW(engine.process_batch(wrong, subset), Error);
}

TEST(Pipeline, RejectsOutOfRangeSubset) {
  const Fixture& fx = Fixture::get();
  ReadoutEngine engine(make_backend(fx.proposed));
  const std::size_t n = fx.ds.shots.size();
  const std::size_t subset[] = {0, n - 1, n};  // The last is one past.
  EXPECT_THROW(engine.process_batch(fx.ds.shots, subset), Error);
  EXPECT_THROW(engine.evaluate(fx.ds.shots, subset), Error);
  const std::size_t far[] = {n + 1000000};
  EXPECT_THROW(engine.process_batch(fx.ds.shots, far), Error);
}

TEST(Pipeline, EmptyBatchIsWellFormed) {
  const Fixture& fx = Fixture::get();
  ReadoutEngine engine(make_backend(fx.proposed));
  const EngineBatch batch = engine.process_batch(std::span<const IqTrace>{});
  EXPECT_EQ(batch.n_shots, 0u);
  EXPECT_TRUE(batch.labels.empty());
}

}  // namespace
}  // namespace mlqr
