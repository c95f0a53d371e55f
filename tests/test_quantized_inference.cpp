// The integer datapath's contract: at W=16 it tracks the float path's
// fidelity within 0.5% absolute, its labels are bit-identical across batch
// sizes and thread counts through ReadoutEngine, and its calibrated
// formats — not assumed widths — feed the FPGA resource model. On the
// same fixture, the float, int16 and int8 labels are identical on every
// SIMD tier, the float features and labels match a checksum pinned from
// the default build, and the integer feature codes and labels match one
// pinned before their requant stages were vectorized.
#include "discrim/quantized_proposed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>

#include "common/error.h"
#include "common/simd.h"
#include "nn/trainer.h"
#include "pipeline/readout_engine.h"
#include "readout/dataset.h"
#include "readout/experiment.h"

namespace mlqr {
namespace {

/// One shot through classify_into on a fresh scratch.
template <typename D>
std::vector<int> classify_one(const D& d, const IqTrace& trace) {
  InferenceScratch scratch;
  std::vector<int> out(d.num_qubits());
  d.classify_into(trace, scratch, out);
  return out;
}

/// Shared small two-qubit dataset + trained float design + W=16 integer
/// twin (training dominates runtime, so it happens once).
struct Fixture {
  ReadoutDataset ds;
  ProposedDiscriminator proposed;
  QuantizedProposedDiscriminator quantized;

  static const Fixture& get() {
    static const Fixture fx = [] {
      DatasetConfig cfg;
      cfg.chip = ChipProfile::test_two_qubit();
      cfg.shots_per_basis_state = 220;
      cfg.seed = 515151;
      ReadoutDataset ds = generate_dataset(cfg);
      ProposedConfig pcfg;
      pcfg.trainer.epochs = 8;
      ProposedDiscriminator p = ProposedDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip, pcfg);
      QuantizedProposedDiscriminator q = QuantizedProposedDiscriminator::quantize(
          p, ds.shots, ds.train_idx, QuantizationConfig{});
      return Fixture{std::move(ds), std::move(p), std::move(q)};
    }();
    return fx;
  }
};

TEST(QuantizedInference, FidelityWithinHalfPercentOfFloat) {
  const Fixture& fx = Fixture::get();
  const FidelityReport f = evaluate_on_test(make_backend(fx.proposed), fx.ds);
  const FidelityReport i = evaluate_on_test(make_backend(fx.quantized), fx.ds);
  EXPECT_NEAR(i.geometric_mean_fidelity(), f.geometric_mean_fidelity(), 0.005)
      << "int16 datapath drifted from the float reference";
}

TEST(QuantizedInference, LabelAgreementWithFloatPath) {
  const Fixture& fx = Fixture::get();
  ReadoutEngine fe(make_backend(fx.proposed));
  ReadoutEngine ie(make_backend(fx.quantized));
  const EngineBatch fb = fe.process_batch(fx.ds.shots.traces);
  const EngineBatch ib = ie.process_batch(fx.ds.shots.traces);
  ASSERT_EQ(fb.labels.size(), ib.labels.size());
  std::size_t agree = 0;
  for (std::size_t k = 0; k < fb.labels.size(); ++k)
    agree += fb.labels[k] == ib.labels[k];
  EXPECT_GE(static_cast<double>(agree) / static_cast<double>(fb.labels.size()),
            0.95);
}

TEST(QuantizedInference, BitIdenticalAcrossBatchSizes) {
  const Fixture& fx = Fixture::get();
  const std::vector<IqTrace>& traces = fx.ds.shots.traces;
  ReadoutEngine whole(make_backend(fx.quantized));
  const EngineBatch big = whole.process_batch(traces);

  ReadoutEngine stream(make_backend(fx.quantized));
  std::vector<int> streamed;
  for (const IqTrace& t : traces) {
    const EngineBatch one = stream.process_batch({&t, 1});
    streamed.insert(streamed.end(), one.labels.begin(), one.labels.end());
  }
  EXPECT_EQ(big.labels, streamed);
}

TEST(QuantizedInference, BitIdenticalAcrossThreadCounts) {
  const Fixture& fx = Fixture::get();
  EngineConfig serial;
  serial.threads = 1;
  ReadoutEngine one(make_backend(fx.quantized), serial);

  EngineConfig parallel;
  parallel.threads = 4;
  ReadoutEngine many(make_backend(fx.quantized), parallel);

  const EngineBatch a = one.process_batch(fx.ds.shots.traces);
  const EngineBatch b = many.process_batch(fx.ds.shots.traces);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(QuantizedInference, LabelsIdenticalOnEveryTier) {
  // The SIMD kernels are picked at runtime; exact integer sums and the one
  // float evaluation order make every tier an implementation detail. Pin
  // the base tier and compare it with the dispatched one through the whole
  // float, int16 and int8 backends — per shot, and batched at sizes on
  // both sides of the per-shot / batched switch, the front-ends' four-shot
  // blocks and their remainders, and the head's 128-shot lane block.
  const Fixture& fx = Fixture::get();
  const Quantized8ProposedDiscriminator int8 =
      Quantized8ProposedDiscriminator::quantize(fx.proposed, fx.ds.shots,
                                                fx.ds.train_idx);
  const simd::Kernels& base = *simd::compiled_tiers().front();
  const simd::Kernels& dispatched = simd::kernels();
  EngineConfig serial;
  serial.threads = 1;
  ReadoutEngine float_engine(make_backend(fx.proposed), serial);
  ReadoutEngine int16_engine(make_backend(fx.quantized), serial);
  ReadoutEngine int8_engine(make_backend(int8), serial);
  const struct {
    const char* width;
    ReadoutEngine* engine;
    std::function<std::vector<int>(const IqTrace&)> classify;
  } kBackends[] = {
      {"float", &float_engine,
       [&](const IqTrace& t) { return classify_one(fx.proposed, t); }},
      {"int16", &int16_engine,
       [&](const IqTrace& t) { return classify_one(fx.quantized, t); }},
      {"int8", &int8_engine,
       [&](const IqTrace& t) { return classify_one(int8, t); }},
  };
  // The fixture holds fewer than 1024 shots; cycle through them.
  std::vector<IqTrace> traces;
  for (std::size_t s = 0; s < 1024; ++s)
    traces.push_back(fx.ds.shots.traces[s % fx.ds.shots.traces.size()]);
  const auto per_shot = [&](const auto& backend) {
    std::vector<int> labels;
    for (const IqTrace& t : traces) {
      const std::vector<int> one = backend.classify(t);
      labels.insert(labels.end(), one.begin(), one.end());
    }
    return labels;
  };
  for (const auto& backend : kBackends) {
    std::vector<int> base_labels;
    {
      simd::ScopedTier pin(base);
      base_labels = per_shot(backend);
    }
    ASSERT_EQ(&simd::kernels(), &dispatched);
    EXPECT_EQ(per_shot(backend), base_labels)
        << backend.width << " per shot: " << base.name << " vs "
        << dispatched.name;
  }
  for (const std::size_t n : {1, 3, 4, 5, 8, 127, 128, 129, 1024}) {
    const std::span<const IqTrace> batch(traces.data(), n);
    for (const auto& backend : kBackends) {
      std::vector<int> base_labels;
      {
        simd::ScopedTier pin(base);
        base_labels = backend.engine->process_batch(batch).labels;
      }
      ASSERT_EQ(&simd::kernels(), &dispatched);
      EXPECT_EQ(backend.engine->process_batch(batch).labels, base_labels)
          << backend.width << " batch " << n << ": " << base.name << " vs "
          << dispatched.name;
    }
  }
}

/// 64-bit FNV-1a over `bytes`, folded into `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* bytes, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

TEST(FloatDatapath, ChecksumMatchesTheDefaultBuild) {
  // The float features and labels of the shared fixture, hashed bit for
  // bit and pinned to the value a default x86-64 Release build computes.
  // Every SIMD tier and every -march (MLQR_NATIVE included) must reproduce
  // it: the front-end, head and GEMM kernels each sum in one order on
  // every tier, and the build forbids FMA contraction. The hash is taken
  // once per tier the host runs.
#if !defined(__x86_64__) && !defined(_M_X64)
  // The kernels agree everywhere, but the fixture's simulated traces and
  // its training call libm (exp, log, sin, cos), whose last bits other C
  // libraries round differently.
  GTEST_SKIP() << "pinned to x86-64 libm";
#endif
  const Fixture& fx = Fixture::get();
  for (const simd::Kernels* tier : simd::compiled_tiers()) {
    if (!simd::host_runs(*tier)) continue;
    const simd::ScopedTier pin(*tier);
    std::uint64_t h = 0xcbf29ce484222325ull;
    InferenceScratch scratch;
    std::vector<int> labels(fx.proposed.num_qubits());
    for (const IqTrace& trace : fx.ds.shots.traces) {
      fx.proposed.features_into(trace, scratch);
      h = fnv1a(h, scratch.features.data(),
                scratch.features.size() * sizeof(float));
      fx.proposed.classify_into(trace, scratch, labels);
      h = fnv1a(h, labels.data(), labels.size() * sizeof(int));
    }
    ReadoutEngine engine(make_backend(fx.proposed));
    const EngineBatch batch = engine.process_batch(fx.ds.shots.traces);
    h = fnv1a(h, batch.labels.data(), batch.labels.size() * sizeof(int));
    EXPECT_EQ(h, 0xb97f9723671545bcull)
        << std::hex << "checksum 0x" << h << " on tier " << tier->name;
  }
}

/// Folds one integer design's feature codes (per shot and blocked) and
/// labels (per shot and batched through the engine) into `h`.
template <typename Code>
std::uint64_t hash_integer_datapath(std::uint64_t h,
                                    const QuantizedProposedOf<Code>& d,
                                    const std::vector<IqTrace>& traces) {
  InferenceScratch scratch;
  std::vector<int> labels(d.num_qubits());
  for (const IqTrace& trace : traces) {
    d.frontend().features_into(trace, scratch);
    h = fnv1a(h, scratch.int_features.data(),
              scratch.int_features.size() * sizeof(std::int32_t));
    d.classify_into(trace, scratch, labels);
    h = fnv1a(h, labels.data(), labels.size() * sizeof(int));
  }
  std::vector<const IqTrace*> ptrs;
  for (const IqTrace& trace : traces) ptrs.push_back(&trace);
  const std::size_t dim = d.feature_dim();
  std::vector<std::int32_t> block(ptrs.size() * dim);
  d.frontend().features_block_into(ptrs.size(), ptrs.data(), scratch,
                                   block.data(), dim);
  h = fnv1a(h, block.data(), block.size() * sizeof(std::int32_t));
  ReadoutEngine engine(make_backend(d));
  const EngineBatch batch = engine.process_batch(traces);
  return fnv1a(h, batch.labels.data(), batch.labels.size() * sizeof(int));
}

TEST(QuantizedDatapath, ChecksumMatchesTheParent) {
  // The int16 and int8 feature codes and labels of the shared fixture,
  // hashed and pinned. Every step is exact integer arithmetic or a
  // correctly rounded double chain, so the pin holds on every tier and
  // architecture: a change to the integer kernels or their requant stages
  // that moves one code or label fails it.
  const Fixture& fx = Fixture::get();
  const Quantized8ProposedDiscriminator int8 =
      Quantized8ProposedDiscriminator::quantize(fx.proposed, fx.ds.shots,
                                                fx.ds.train_idx);
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = hash_integer_datapath(h, fx.quantized, fx.ds.shots.traces);
  h = hash_integer_datapath(h, int8, fx.ds.shots.traces);
  EXPECT_EQ(h, 0xf60c7e9e53ae4d11ull) << std::hex << "checksum 0x" << h << " on tier "
                       << simd::tier();
}

TEST(QuantizedInference, EngineMatchesPerShotClassify) {
  const Fixture& fx = Fixture::get();
  ReadoutEngine engine(make_backend(fx.quantized));
  const EngineBatch batch = engine.process_batch(
      std::span<const IqTrace>(fx.ds.shots.traces.data(), 25));
  for (std::size_t s = 0; s < 25; ++s) {
    const std::vector<int> expected =
        classify_one(fx.quantized, fx.ds.shots.traces[s]);
    const std::span<const int> got = batch.shot_labels(s);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t q = 0; q < expected.size(); ++q)
      EXPECT_EQ(got[q], expected[q]) << "shot " << s << " qubit " << q;
  }
}

TEST(QuantizedInference, FrontendTracksFloatFeatures) {
  const Fixture& fx = Fixture::get();
  const QuantizedFrontend& fe = fx.quantized.frontend();
  InferenceScratch float_scratch, int_scratch;
  for (std::size_t s = 0; s < 10; ++s) {
    const IqTrace& tr = fx.ds.shots.traces[s];
    fx.proposed.features_into(tr, float_scratch);
    fe.features_into(tr, int_scratch);
    ASSERT_EQ(int_scratch.int_features.size(), float_scratch.features.size());
    for (std::size_t j = 0; j < float_scratch.features.size(); ++j) {
      const double decoded =
          from_code(int_scratch.int_features[j], fe.feature_format());
      EXPECT_NEAR(decoded, static_cast<double>(float_scratch.features[j]), 0.05)
          << "shot " << s << " feature " << j;
    }
  }
}

TEST(QuantizedInference, LoTableIsUnitMagnitude) {
  const Fixture& fx = Fixture::get();
  const QuantizedFrontend& fe = fx.quantized.frontend();
  for (std::size_t q = 0; q < fe.num_qubits(); ++q) {
    const std::span<const std::int16_t> lut = fe.lo_table(q);
    ASSERT_EQ(lut.size(), fe.n_samples() * 2);
    for (std::size_t t = 0; t < fe.n_samples(); ++t) {
      const double re = from_code(lut[2 * t], fe.lo_format());
      const double im = from_code(lut[2 * t + 1], fe.lo_format());
      EXPECT_NEAR(std::hypot(re, im), 1.0, 2e-4) << "qubit " << q << " t " << t;
    }
  }
}

TEST(QuantizedInference, QuantizedMlpTracksFloatLogits) {
  // Hand-built tiny network with deterministic weights: the integer logits,
  // decoded, must track the float logits within a few grid steps.
  Mlp mlp({4, 6, 3});
  Rng rng(7);
  mlp.init_weights(rng);
  std::vector<float> calib;
  Rng data_rng(8);
  for (int r = 0; r < 64; ++r)
    for (int c = 0; c < 4; ++c)
      calib.push_back(static_cast<float>(data_rng.normal(0.0, 2.0)));

  const FixedPointFormat in_fmt = fit_format(-8.0, 8.0, 16);
  const QuantizedMlp q =
      QuantizedMlp::quantize(mlp, calib, in_fmt, QuantizationConfig{});

  std::vector<std::int32_t> codes(4);
  std::vector<std::int64_t> logits;
  std::vector<std::int16_t> a, b;
  std::vector<float> f, f_scratch;
  for (int r = 0; r < 64; ++r) {
    std::vector<float> row(calib.begin() + r * 4, calib.begin() + (r + 1) * 4);
    // Feed the float path the decoded codes so both see the same inputs.
    for (int c = 0; c < 4; ++c) {
      codes[c] = static_cast<std::int32_t>(to_code(row[c], in_fmt));
      row[c] = static_cast<float>(from_code(codes[c], in_fmt));
    }
    mlp.logits_into(row, f, f_scratch);
    q.logits_into(codes, logits, a, b);
    ASSERT_EQ(logits.size(), f.size());
    for (std::size_t j = 0; j < f.size(); ++j)
      EXPECT_NEAR(static_cast<double>(logits[j]) * q.logit_resolution(),
                  static_cast<double>(f[j]), 0.02)
          << "row " << r << " logit " << j;
  }
}

TEST(QuantizedInference, MlpForwardBitExactVsNaiveReference) {
  // The SIMD dot products inside logits_into must leave the integer
  // contract untouched: recomputing every layer with plain scalar loops
  // (the FPGA-schedule reference) yields bit-identical logits.
  const Fixture& fx = Fixture::get();
  const QuantizedMlp& head = fx.quantized.head(0);
  const QuantizedFrontend& fe = fx.quantized.frontend();
  InferenceScratch scratch;
  std::vector<std::int64_t> logits;
  std::vector<std::int16_t> a, b;
  for (std::size_t s = 0; s < 25; ++s) {
    fe.features_into(fx.ds.shots.traces[s], scratch);
    head.logits_into(scratch.int_features, logits, a, b);

    std::vector<std::int64_t> cur(scratch.int_features.begin(),
                                  scratch.int_features.end());
    const int accum_bits = head.config().accum_bits;
    for (std::size_t l = 0; l < head.layers().size(); ++l) {
      const QuantizedDenseLayer& layer = head.layers()[l];
      const bool last = l + 1 == head.layers().size();
      std::vector<std::int64_t> next(layer.out);
      for (std::size_t j = 0; j < layer.out; ++j) {
        std::int64_t acc = layer.b[j];
        for (std::size_t i = 0; i < layer.in; ++i)
          acc += static_cast<std::int64_t>(layer.w[j * layer.in + i]) * cur[i];
        acc = saturate_to_bits(acc, accum_bits);
        if (!last) {
          if (acc < 0) acc = 0;
          const int shift = layer.in_fmt.frac_bits +
                            layer.weight_fmt.frac_bits -
                            head.layers()[l + 1].in_fmt.frac_bits;
          acc = saturate_to_bits(shift_round_half_even(acc, shift),
                                 head.config().activation_bits);
        }
        next[j] = acc;
      }
      cur = std::move(next);
    }
    ASSERT_EQ(logits.size(), cur.size());
    for (std::size_t j = 0; j < cur.size(); ++j)
      EXPECT_EQ(logits[j], cur[j]) << "shot " << s << " logit " << j;
  }
}

template <typename Code>
void expect_batch_matches_per_shot(const QuantizedProposedOf<Code>& d,
                                   const ReadoutDataset& ds) {
  // 200 shots: one full 128-shot lane block plus a ragged tail.
  const std::size_t n = 200;
  const std::size_t dim = d.feature_dim();
  InferenceScratch scratch;
  std::vector<std::int32_t> feats(n * dim);
  for (std::size_t s = 0; s < n; ++s) {
    d.frontend().features_into(ds.shots.traces[s], scratch);
    std::copy(scratch.int_features.begin(), scratch.int_features.end(),
              feats.begin() + s * dim);
  }
  using Head = typename QuantizedProposedOf<Code>::Head;
  std::vector<typename Head::Logit> logits;
  std::vector<typename Head::Act> a, b;
  for (std::size_t q = 0; q < d.num_qubits(); ++q) {
    std::vector<int> batched(n);
    d.head(q).classify_batch_into(n, feats.data(), a, b, logits,
                                  batched.data(), 1);
    for (std::size_t s = 0; s < n; ++s)
      ASSERT_EQ(batched[s],
                d.head(q).predict({feats.data() + s * dim, dim}, logits, a, b))
          << d.name() << " W=" << d.config().weight_bits
          << " A=" << d.config().activation_bits << " qubit " << q
          << " shot " << s;
  }
}

TEST(QuantizedInference, HeadBatchMatchesPerShotAtEveryStrip) {
  // The shot-lane batch path picks its int32 strip from the code widths:
  // 1 at full-range int16 (direct widening), several strips per layer at
  // 16/14, one strip covering the layer at 8/8 and at int8. Every schedule
  // must reproduce the per-shot labels exactly.
  const Fixture& fx = Fixture::get();
  expect_batch_matches_per_shot(fx.quantized, fx.ds);
  QuantizationConfig w16a14;
  w16a14.activation_bits = 14;
  QuantizationConfig w8;
  w8.weight_bits = 8;
  w8.activation_bits = 8;
  for (const QuantizationConfig& cfg : {w16a14, w8})
    expect_batch_matches_per_shot(
        QuantizedProposedDiscriminator::quantize(fx.proposed, fx.ds.shots,
                                                 fx.ds.train_idx, cfg),
        fx.ds);
  expect_batch_matches_per_shot(
      Quantized8ProposedDiscriminator::quantize(fx.proposed, fx.ds.shots,
                                                fx.ds.train_idx),
      fx.ds);
}

TEST(QuantizedInference, Int8HeadsShareTheInt16Calibration) {
  // One calibration mints both widths: at an int8-compatible config the
  // int16 and int8 designs carry the same front-end, formats and codes,
  // and therefore classify identically.
  const Fixture& fx = Fixture::get();
  const QuantizationConfig cfg = Quantized8ProposedDiscriminator::default_config();
  const QuantizedProposedDiscriminator wide = QuantizedProposedDiscriminator::quantize(
      fx.proposed, fx.ds.shots, fx.ds.train_idx, cfg);
  const Quantized8ProposedDiscriminator narrow =
      Quantized8ProposedDiscriminator::quantize(fx.proposed, fx.ds.shots,
                                                fx.ds.train_idx);
  EXPECT_EQ(narrow.name(), "OURS-INT8");
  for (std::size_t q = 0; q < wide.num_qubits(); ++q) {
    const auto& wl = wide.head(q).layers();
    const auto& nl = narrow.head(q).layers();
    ASSERT_EQ(wl.size(), nl.size());
    for (std::size_t l = 0; l < wl.size(); ++l) {
      EXPECT_EQ(wl[l].weight_fmt.frac_bits, nl[l].weight_fmt.frac_bits);
      EXPECT_EQ(wl[l].in_fmt.frac_bits, nl[l].in_fmt.frac_bits);
      EXPECT_TRUE(std::equal(wl[l].w.begin(), wl[l].w.end(), nl[l].w.begin(),
                             nl[l].w.end()));
      EXPECT_TRUE(std::equal(wl[l].b.begin(), wl[l].b.end(), nl[l].b.begin(),
                             nl[l].b.end()));
    }
  }
  for (std::size_t s = 0; s < 50; ++s)
    EXPECT_EQ(classify_one(wide, fx.ds.shots.traces[s]),
              classify_one(narrow, fx.ds.shots.traces[s]))
        << "shot " << s;
}

TEST(QuantizedInference, Int8RejectsWidthsItCannotStore) {
  const Fixture& fx = Fixture::get();
  QuantizationConfig too_wide = Quantized8ProposedDiscriminator::default_config();
  too_wide.weight_bits = 12;
  EXPECT_THROW(Quantized8ProposedDiscriminator::quantize(
                   fx.proposed, fx.ds.shots, fx.ds.train_idx, too_wide),
               Error);
  too_wide = Quantized8ProposedDiscriminator::default_config();
  too_wide.accum_bits = 40;  // Logits would not fit int32.
  EXPECT_THROW(Quantized8ProposedDiscriminator::quantize(
                   fx.proposed, fx.ds.shots, fx.ds.train_idx, too_wide),
               Error);
}

TEST(QuantizedInference, TraceCodesMatchToCode) {
  // Pass 0's vector quantizer against the semantic definition: every code
  // equals to_code() of the raw sample on the calibrated ADC grid.
  const Fixture& fx = Fixture::get();
  const QuantizedFrontend& fe = fx.quantized.frontend();
  InferenceScratch scratch;
  for (std::size_t s = 0; s < 10; ++s) {
    const IqTrace& tr = fx.ds.shots.traces[s];
    fe.features_into(tr, scratch);
    ASSERT_EQ(scratch.int_trace_i.size(), fe.n_samples());
    for (std::size_t t = 0; t < fe.n_samples(); ++t) {
      EXPECT_EQ(scratch.int_trace_i[t],
                static_cast<std::int16_t>(to_code(
                    static_cast<double>(tr.i[t]), fe.trace_format())))
          << "shot " << s << " t " << t;
      EXPECT_EQ(scratch.int_trace_q[t],
                static_cast<std::int16_t>(to_code(
                    static_cast<double>(tr.q[t]), fe.trace_format())))
          << "shot " << s << " t " << t;
    }
  }
}

TEST(QuantizedInference, FrontendImmuneToRoundingMode) {
  // Both front-end paths guard their vector trace quantizer and feature
  // requant on the FP environment; a hostile rounding mode must fall back
  // to the scalar twins and produce bit-identical codes (to_code's
  // fesetround-immunity contract) — per shot, and blocked at sizes that
  // leave a ragged four-shot group and span two shot blocks.
  const Fixture& fx = Fixture::get();
  const QuantizedFrontend& fe = fx.quantized.frontend();
  InferenceScratch nearest, upward;
  const IqTrace& tr = fx.ds.shots.traces[3];
  fe.features_into(tr, nearest);
  ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
  fe.features_into(tr, upward);
  ASSERT_EQ(std::fesetround(FE_TONEAREST), 0);
  EXPECT_EQ(nearest.int_trace_i, upward.int_trace_i);
  EXPECT_EQ(nearest.int_trace_q, upward.int_trace_q);
  EXPECT_EQ(nearest.int_features, upward.int_features);

  const std::size_t dim = fe.n_filters();
  for (const std::size_t block : {5, 13}) {
    std::vector<const IqTrace*> traces;
    for (std::size_t s = 0; s < block; ++s)
      traces.push_back(&fx.ds.shots.traces[s]);
    std::vector<std::int32_t> want(block * dim), got(block * dim);
    fe.features_block_into(block, traces.data(), nearest, want.data(), dim);
    ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
    fe.features_block_into(block, traces.data(), upward, got.data(), dim);
    ASSERT_EQ(std::fesetround(FE_TONEAREST), 0);
    EXPECT_EQ(got, want) << "block " << block;
  }
}

TEST(QuantizedInference, RejectsTooNarrowAccumulator) {
  Mlp mlp({4, 6, 3});
  Rng rng(7);
  mlp.init_weights(rng);
  std::vector<float> calib(4 * 8, 3.0f);
  const FixedPointFormat in_fmt{16, 11};
  QuantizationConfig cfg;
  cfg.accum_bits = 8;  // Cannot hold in_frac=11 plus any weight fraction.
  EXPECT_THROW(QuantizedMlp::quantize(mlp, calib, in_fmt, cfg), Error);
}

TEST(QuantizedInference, CalibratedFormatsFeedResourceModel) {
  const Fixture& fx = Fixture::get();
  EXPECT_EQ(fx.quantized.config().weight_bits, 16);
  EXPECT_EQ(fx.quantized.config().accum_bits, 32);
  EXPECT_EQ(fx.quantized.frontend().trace_format().total_bits, 16);
  for (std::size_t q = 0; q < fx.quantized.num_qubits(); ++q)
    for (const auto& l : fx.quantized.head(q).layers())
      EXPECT_GE(l.weight_fmt.frac_bits, 0);

  const DesignSpec spec = fx.quantized.design_spec();
  EXPECT_EQ(spec.hls.weight_bits, 16);
  EXPECT_EQ(spec.hls.accum_bits, 32);
  EXPECT_EQ(spec.demod_channels, fx.quantized.num_qubits());
  EXPECT_EQ(spec.nns.size(), fx.quantized.num_qubits());
  // Estimating the spec must work and scale with the calibrated width:
  // a W=8 twin of the same model is strictly cheaper in LUTs.
  QuantizationConfig w8;
  w8.weight_bits = 8;
  w8.activation_bits = 8;
  const QuantizedProposedDiscriminator q8 =
      QuantizedProposedDiscriminator::quantize(fx.proposed, fx.ds.shots,
                                               fx.ds.train_idx, w8);
  EXPECT_LT(estimate_design(q8.design_spec()).luts,
            estimate_design(spec).luts);
}

TEST(QuantizedInference, NarrowWidthsStillClassify) {
  // W=8 end-to-end: fidelity can degrade, but the path must stay sane
  // (legal labels, deterministic repeat).
  const Fixture& fx = Fixture::get();
  QuantizationConfig w8;
  w8.weight_bits = 8;
  w8.activation_bits = 8;
  const QuantizedProposedDiscriminator q8 =
      QuantizedProposedDiscriminator::quantize(fx.proposed, fx.ds.shots,
                                               fx.ds.train_idx, w8);
  const std::vector<int> once = classify_one(q8, fx.ds.shots.traces[0]);
  const std::vector<int> twice = classify_one(q8, fx.ds.shots.traces[0]);
  EXPECT_EQ(once, twice);
  for (int level : once) {
    EXPECT_GE(level, 0);
    EXPECT_LT(level, kNumLevels);
  }
}

}  // namespace
}  // namespace mlqr
