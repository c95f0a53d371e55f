#include "nn/trainer.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "common/simd.h"

namespace mlqr {
namespace {

/// Three Gaussian blobs in 2-D; returns row-major features + labels.
void make_blobs(std::vector<float>& x, std::vector<int>& y, int per_class,
                std::uint64_t seed, double sigma = 0.5) {
  Rng rng(seed);
  const double cx[3] = {-2.0, 2.0, 0.0};
  const double cy[3] = {0.0, 0.0, 2.5};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < per_class; ++i) {
      x.push_back(static_cast<float>(rng.normal(cx[c], sigma)));
      x.push_back(static_cast<float>(rng.normal(cy[c], sigma)));
      y.push_back(c);
    }
  }
}

/// Plain accuracy of `m` on a labeled set (serial argmax sweep).
double accuracy(const Mlp& m, const std::vector<float>& x,
                const std::vector<int>& y) {
  const std::size_t in = m.input_size();
  std::size_t hits = 0;
  std::vector<float> out, scratch;
  for (std::size_t s = 0; s < y.size(); ++s)
    if (m.predict_reusing({x.data() + in * s, in}, out, scratch) == y[s])
      ++hits;
  return static_cast<double>(hits) / static_cast<double>(y.size());
}

TEST(Trainer, LearnsSeparableBlobs) {
  std::vector<float> x;
  std::vector<int> y;
  make_blobs(x, y, 300, 83);
  Mlp m({2, 8, 3});
  Rng rng(5);
  m.init_weights(rng);
  TrainerConfig cfg;
  cfg.epochs = 50;
  cfg.validation_fraction = 0.0f;
  const TrainHistory h = train_classifier(m, x, y, cfg);
  EXPECT_GT(accuracy(m, x, y), 0.97);
  EXPECT_LT(h.train_loss.back(), h.train_loss.front());
}

TEST(Trainer, GeneralizesToFreshData) {
  std::vector<float> x, xt;
  std::vector<int> y, yt;
  make_blobs(x, y, 400, 89);
  make_blobs(xt, yt, 200, 97);
  Mlp m({2, 8, 3});
  Rng rng(7);
  m.init_weights(rng);
  TrainerConfig cfg;
  cfg.epochs = 30;
  train_classifier(m, x, y, cfg);
  EXPECT_GT(accuracy(m, xt, yt), 0.95);
}

TEST(Trainer, ClassWeightsRescueMinorityClass) {
  // Class 2 has 1% prevalence and overlaps class 1 slightly.
  Rng rng(101);
  std::vector<float> x;
  std::vector<int> y;
  auto add = [&](double cx, double cy, int c, int n) {
    for (int i = 0; i < n; ++i) {
      x.push_back(static_cast<float>(rng.normal(cx, 0.6)));
      x.push_back(static_cast<float>(rng.normal(cy, 0.6)));
      y.push_back(c);
    }
  };
  add(-2, 0, 0, 1000);
  add(2, 0, 1, 1000);
  add(0.5, 2.0, 2, 18);

  TrainerConfig weighted;
  weighted.epochs = 40;
  weighted.weight_decay = 5e-4f;
  weighted.validation_fraction = 0.0f;
  weighted.class_weights = inverse_frequency_weights(y, 3);

  Mlp mw({2, 8, 4, 3});
  Rng ir(3);
  mw.init_weights(ir);
  train_classifier(mw, x, y, weighted);

  // Fresh minority samples must be mostly recovered.
  int hits = 0;
  Rng fresh(103);
  std::vector<float> out, scratch;
  for (int i = 0; i < 300; ++i) {
    std::vector<float> p{static_cast<float>(fresh.normal(0.5, 0.6)),
                         static_cast<float>(fresh.normal(2.0, 0.6))};
    if (mw.predict_reusing(p, out, scratch) == 2) ++hits;
  }
  EXPECT_GT(hits, 180);
}

TEST(Trainer, BalancedAccuracyWeighsClassesEqually) {
  // A constant predictor of class 0 on a 90/10 split: plain accuracy 0.9,
  // balanced accuracy 0.5.
  Mlp m({1, 2});
  auto& l = m.mutable_layers()[0];
  l.w = {0.0f, 0.0f};
  l.b = {1.0f, 0.0f};  // Always predicts class 0.
  std::vector<float> x;
  std::vector<int> y;
  for (int i = 0; i < 90; ++i) {
    x.push_back(0.0f);
    y.push_back(0);
  }
  for (int i = 0; i < 10; ++i) {
    x.push_back(0.0f);
    y.push_back(1);
  }
  EXPECT_NEAR(accuracy(m, x, y), 0.9, 1e-12);
  EXPECT_NEAR(evaluate_balanced_accuracy(m, x, y), 0.5, 1e-12);
}

TEST(Trainer, InverseFrequencyWeights) {
  const std::vector<int> y{0, 0, 0, 1};
  const auto w = inverse_frequency_weights(y, 3);
  EXPECT_NEAR(w[0], 4.0 / (2.0 * 3.0), 1e-6);
  EXPECT_NEAR(w[1], 4.0 / (2.0 * 1.0), 1e-6);
  EXPECT_FLOAT_EQ(w[2], 0.0f);  // Absent class.
}

TEST(Trainer, RejectsOutOfRangeLabels) {
  Mlp m({2, 3});
  Rng rng(1);
  m.init_weights(rng);
  std::vector<float> x{0.0f, 0.0f};
  std::vector<int> y{5};
  TrainerConfig cfg;
  EXPECT_THROW(train_classifier(m, x, y, cfg), Error);
}

TEST(Trainer, RejectsShapeMismatch) {
  Mlp m({2, 3});
  Rng rng(1);
  m.init_weights(rng);
  std::vector<float> x{0.0f, 0.0f, 0.0f};
  std::vector<int> y{0};
  TrainerConfig cfg;
  EXPECT_THROW(train_classifier(m, x, y, cfg), Error);
}

TEST(Trainer, WeightDecayShrinksWeights) {
  std::vector<float> x;
  std::vector<int> y;
  make_blobs(x, y, 100, 107);
  TrainerConfig plain, decayed;
  plain.epochs = decayed.epochs = 20;
  plain.learning_rate = decayed.learning_rate = 1e-2f;
  plain.validation_fraction = decayed.validation_fraction = 0.0f;
  decayed.weight_decay = 0.5f;

  Mlp m1({2, 16, 3}), m2({2, 16, 3});
  Rng r1(9), r2(9);
  m1.init_weights(r1);
  m2.init_weights(r2);
  train_classifier(m1, x, y, plain);
  train_classifier(m2, x, y, decayed);

  // Compare total weight energy (max can be dominated by a single
  // decision-critical weight that decay barely touches).
  auto l2 = [](const Mlp& m) {
    double acc = 0.0;
    for (const DenseLayer& l : m.layers())
      for (float w : l.w) acc += static_cast<double>(w) * w;
    return acc;
  };
  EXPECT_LT(l2(m2), 0.8 * l2(m1));
}

std::string weight_bits(const Mlp& m) {
  std::ostringstream os;
  m.save(os);
  return os.str();
}

// The data-parallel trainer's contract: the gradient shard partition is
// fixed (not thread-count-dependent) and shards reduce in index order, so
// the trained weights are bit-identical for every worker count. Two
// inputs: the 2-16-3 blobs net, and a 32-64-32-3 net on 32-wide features
// whose dots run the SIMD kernels' vector bodies (2-wide ones reach only
// their scalar tails) and whose backward pass crosses a hidden-to-hidden
// layer.
TEST(Trainer, ThreadCountBitIdentity) {
  struct Input {
    const char* name;
    std::vector<std::size_t> shape;
    int epochs;
    float weight_decay;
    std::vector<float> x;
    std::vector<int> y;
  };
  Input blobs{"blobs", {2, 16, 3}, 5, 0.01f, {}, {}};
  make_blobs(blobs.x, blobs.y, 200, 311);
  // Class c lifts every third of the 32 features by 2.
  Input wide{"wide", {32, 64, 32, 3}, 3, 0.0f, {}, {}};
  Rng data(0x7A11);
  for (int s = 0; s < 300; ++s) {
    wide.y.push_back(s % 3);
    for (int d = 0; d < 32; ++d)
      wide.x.push_back(static_cast<float>(data.normal()) +
                       (d % 3 == s % 3 ? 2.0f : 0.0f));
  }

  for (const Input* in : {&blobs, &wide}) {
    TrainerConfig cfg;
    cfg.epochs = in->epochs;
    cfg.validation_fraction = 0.0f;
    cfg.weight_decay = in->weight_decay;
    std::string reference;
    for (const std::size_t workers : {1, 2, 4}) {
      Mlp m(in->shape);
      Rng rng(42);
      m.init_weights(rng);
      cfg.threads = workers;
      train_classifier(m, in->x, in->y, cfg);
      if (workers == 1)
        reference = weight_bits(m);
      else
        EXPECT_EQ(weight_bits(m), reference)
            << in->name << ", workers=" << workers;
    }
    ASSERT_FALSE(reference.empty()) << in->name;
  }
}

/// 64-bit FNV-1a over `bytes`, folded into `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* bytes, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

/// Folds a trained model's weight bit patterns and its history into `h`.
std::uint64_t hash_run(std::uint64_t h, const Mlp& m, const TrainHistory& t) {
  for (const DenseLayer& l : m.layers()) {
    h = fnv1a(h, l.w.data(), l.w.size() * sizeof(float));
    h = fnv1a(h, l.b.data(), l.b.size() * sizeof(float));
  }
  h = fnv1a(h, t.train_loss.data(), t.train_loss.size() * sizeof(double));
  h = fnv1a(h, t.val_accuracy.data(), t.val_accuracy.size() * sizeof(double));
  return fnv1a(h, &t.best_epoch, sizeof(t.best_epoch));
}

// Two small runs, hashed bit for bit and pinned, so a change to the
// trainer's arithmetic or to any of its fixed hyper-parameters (batch 64,
// Adam 0.9 / 0.999 / 1e-8, balanced validation) fails. Run one takes the
// defaults on unequal, overlapping classes, so it holds out a 15%
// validation split, selects by balanced accuracy and restores an earlier
// best epoch; run two adds inverse-frequency class weights and weight
// decay. A third run, pinned on its own, trains a wider net whose GEMM
// rows reach 48 floats, so the element-wise training kernels run their
// widest (16-lane) loops, not only their 4-wide blocks and tails. Every
// run repeats on every SIMD tier the host runs: the GEMM and head kernels
// sum in one order on every tier, so each gives the pins.
TEST(Trainer, ChecksumMatchesTheParent) {
#if !defined(__x86_64__) && !defined(_M_X64)
  // The kernels agree everywhere, but the loss and Adam steps call libm's
  // exp / log / sqrt, whose last bits other C libraries round differently.
  GTEST_SKIP() << "pinned to x86-64 libm";
#endif
  std::vector<float> x;
  std::vector<int> y;
  Rng data(0x5EED);
  const double cx[3] = {-1.0, 1.0, 0.0};
  const double cy[3] = {0.0, 0.0, 1.2};
  const int count[3] = {240, 120, 30};
  for (int c = 0; c < 3; ++c)
    for (int i = 0; i < count[c]; ++i) {
      x.push_back(static_cast<float>(data.normal(cx[c], 0.9)));
      x.push_back(static_cast<float>(data.normal(cy[c], 0.9)));
      y.push_back(c);
    }

  for (const simd::Kernels* tier : simd::compiled_tiers()) {
    if (!simd::host_runs(*tier)) continue;
    const simd::ScopedTier pin(*tier);
    std::uint64_t h = 0xcbf29ce484222325ull;
    TrainerConfig defaults;
    Mlp m1({2, 12, 3});
    Rng r1(21);
    m1.init_weights(r1);
    const TrainHistory t1 = train_classifier(m1, x, y, defaults);
    ASSERT_EQ(t1.val_accuracy.size(),
              static_cast<std::size_t>(defaults.epochs));
    EXPECT_LT(t1.best_epoch, defaults.epochs - 1);  // Restore is exercised.
    h = hash_run(h, m1, t1);

    TrainerConfig weighted;
    weighted.class_weights = inverse_frequency_weights(y, 3);
    weighted.weight_decay = 1e-2f;
    Mlp m2({2, 12, 3});
    Rng r2(22);
    m2.init_weights(r2);
    h = hash_run(h, m2, train_classifier(m2, x, y, weighted));
    EXPECT_EQ(h, 0x78af8fbb77357ef5ull)
        << std::hex << "checksum 0x" << h << " on tier " << tier->name;

    Mlp m3({2, 48, 24, 3});
    Rng r3(23);
    m3.init_weights(r3);
    const std::uint64_t h3 = hash_run(0xcbf29ce484222325ull, m3,
                                      train_classifier(m3, x, y, defaults));
    EXPECT_EQ(h3, 0xf997679e27b1d96dull)
        << std::hex << "wide-run checksum 0x" << h3 << " on tier "
        << tier->name;
  }
}

// Parallel evaluation reduces integer hit counts, so it is exactly equal
// for every thread count — and pinned against a serial per-class sweep.
TEST(Trainer, ParallelEvalMatchesSerial) {
  std::vector<float> x;
  std::vector<int> y;
  make_blobs(x, y, 120, 211);
  Mlp m({2, 8, 3});
  Rng rng(3);
  m.init_weights(rng);
  TrainerConfig cfg;
  cfg.epochs = 10;
  cfg.validation_fraction = 0.0f;
  train_classifier(m, x, y, cfg);

  std::array<std::size_t, 3> hits{}, totals{};
  std::vector<float> out, scratch;
  for (std::size_t s = 0; s < y.size(); ++s) {
    ++totals[y[s]];
    if (m.predict_reusing({x.data() + 2 * s, 2}, out, scratch) == y[s])
      ++hits[y[s]];
  }
  double serial = 0.0;
  for (int c = 0; c < 3; ++c)
    serial += static_cast<double>(hits[c]) / static_cast<double>(totals[c]);
  serial /= 3.0;
  EXPECT_EQ(evaluate_balanced_accuracy(m, x, y, 1), serial);
  EXPECT_EQ(evaluate_balanced_accuracy(m, x, y, 4), serial);
}

}  // namespace
}  // namespace mlqr
