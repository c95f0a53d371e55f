#include "nn/mlp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include "common/error.h"

namespace mlqr {
namespace {

std::vector<float> logits_of(const Mlp& m, std::span<const float> x) {
  std::vector<float> out, scratch;
  m.logits_into(x, out, scratch);
  return out;
}

int predict_of(const Mlp& m, std::span<const float> x) {
  std::vector<float> out, scratch;
  return m.predict_reusing(x, out, scratch);
}

TEST(Mlp, TopologyAndParameterCount) {
  const Mlp m({45, 22, 11, 3});
  EXPECT_EQ(m.input_size(), 45u);
  EXPECT_EQ(m.output_size(), 3u);
  EXPECT_EQ(m.num_layers(), 3u);
  // 45*22+22 + 22*11+11 + 11*3+3 = 1012 + 253 + 36 = 1301.
  EXPECT_EQ(m.parameter_count(), 1301u);
}

TEST(Mlp, PaperTopologiesMatchClaimedSizes) {
  // FNN baseline ~686k parameters (1000-500-250-243).
  const Mlp fnn({1000, 500, 250, 243});
  EXPECT_NEAR(static_cast<double>(fnn.parameter_count()), 686.0e3, 4e3);

  // Proposed per-qubit head is ~100x smaller even with 5 instances.
  const Mlp head({45, 22, 11, 3});
  EXPECT_GT(fnn.parameter_count(), 100u * head.parameter_count());
}

TEST(Mlp, ForwardMatchesManualComputation) {
  Mlp m({2, 2, 2});
  auto& layers = m.mutable_layers();
  layers[0].w = {1.0f, 0.0f, 0.0f, 1.0f};  // Identity.
  layers[0].b = {0.0f, -1.0f};
  layers[1].w = {1.0f, 2.0f, 3.0f, 4.0f};
  layers[1].b = {0.5f, -0.5f};

  const std::vector<float> x{2.0f, 0.5f};
  // Layer0: (2, -0.5) -> ReLU -> (2, 0).
  // Layer1: (1*2+2*0+0.5, 3*2+4*0-0.5) = (2.5, 5.5).
  const std::vector<float> z = logits_of(m, x);
  EXPECT_FLOAT_EQ(z[0], 2.5f);
  EXPECT_FLOAT_EQ(z[1], 5.5f);
  EXPECT_EQ(predict_of(m, x), 1);
}

TEST(Mlp, BatchForwardMatchesSingle) {
  // The batched head the engines serve must give predict_reusing's label
  // on every row, written at the requested stride: a narrow net within one
  // shot block, and the FNN's 1000 -> 500 -> 250 -> 243 shape over a full
  // block plus a partial second one. A row with a NaN input takes the
  // same label on both paths (their ReLU maps NaN to +0).
  const struct {
    std::vector<std::size_t> sizes;
    std::size_t rows;
  } kCases[] = {{{16, 12, 6, 5}, 37}, {{1000, 500, 250, 243}, 150}};
  constexpr std::size_t kStride = 2;
  for (const auto& c : kCases) {
    Mlp m(c.sizes);
    Rng rng(71);
    m.init_weights(rng);
    // Non-zero biases, so the NaN row's label depends on the ReLU rule.
    for (DenseLayer& layer : m.mutable_layers())
      for (float& b : layer.b) b = static_cast<float>(rng.normal(0.0, 0.5));
    std::vector<float> batch(c.rows * m.input_size());
    for (auto& v : batch) v = static_cast<float>(rng.normal());
    batch[5 * m.input_size() + 3] = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> act_a, act_b;
    std::vector<int> labels(c.rows * kStride, -1);
    m.classify_batch_into(c.rows, batch.data(), act_a, act_b, labels.data(),
                          kStride);
    std::vector<float> out, scratch;
    for (std::size_t r = 0; r < c.rows; ++r) {
      const std::span<const float> row(batch.data() + r * m.input_size(),
                                       m.input_size());
      EXPECT_EQ(labels[r * kStride], m.predict_reusing(row, out, scratch))
          << m.input_size() << "-input net, row " << r;
      EXPECT_EQ(labels[r * kStride + 1], -1) << "stride gap written, row " << r;
    }
  }
}

TEST(Mlp, InitWeightsDeterministic) {
  Mlp a({8, 4, 2}), b({8, 4, 2});
  Rng ra(5), rb(5);
  a.init_weights(ra);
  b.init_weights(rb);
  EXPECT_EQ(a.layers()[0].w, b.layers()[0].w);
}

TEST(Mlp, SaveLoadRoundTrip) {
  Mlp m({10, 7, 4});
  Rng rng(77);
  m.init_weights(rng);
  std::stringstream ss;
  m.save(ss);
  const Mlp loaded = Mlp::load(ss);
  EXPECT_EQ(loaded.parameter_count(), m.parameter_count());
  std::vector<float> x(10, 0.3f);
  EXPECT_EQ(logits_of(loaded, x), logits_of(m, x));
}

TEST(Mlp, ScoredConfidenceIsStableSoftmax) {
  // One linear layer that passes its bias through: logits (1000, 1001,
  // 999) would overflow a naive exp, the anchored softmax must not.
  Mlp m({1, 3});
  m.mutable_layers()[0].b = {1000.0f, 1001.0f, 999.0f};
  const std::vector<float> x{0.0f};
  std::vector<float> out, scratch;
  float p_max = 0.0f;
  EXPECT_EQ(m.predict_scored_reusing(x, out, scratch, p_max), 1);
  EXPECT_TRUE(std::isfinite(p_max));
  EXPECT_NEAR(p_max, 1.0 / (1.0 + std::exp(-1.0) + std::exp(-2.0)), 1e-6);
}

TEST(Mlp, InvalidConstructionThrows) {
  EXPECT_THROW(Mlp({5}), Error);
  EXPECT_THROW(Mlp({5, 0, 2}), Error);
}

TEST(Mlp, WrongInputSizeThrows) {
  const Mlp m({4, 2});
  std::vector<float> x(3, 0.0f);
  EXPECT_THROW(logits_of(m, x), Error);
}

TEST(Mlp, CorruptStreamThrows) {
  std::stringstream ss;
  ss << "garbage";
  EXPECT_THROW(Mlp::load(ss), Error);
}

}  // namespace
}  // namespace mlqr
