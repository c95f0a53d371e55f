#include "cluster/leakage_labeler.h"

#include <gtest/gtest.h>

#include <complex>

#include "common/error.h"
#include "common/rng.h"

namespace mlqr {
namespace {

struct Cloud {
  std::vector<std::complex<double>> mtv;
  std::vector<int> prepared;
  std::vector<int> truth;
  Rng rng{67};

  void add(std::complex<double> center, double sigma, int prep, int truth_level,
           std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      mtv.emplace_back(rng.normal(center.real(), sigma),
                       rng.normal(center.imag(), sigma));
      prepared.push_back(prep);
      truth.push_back(truth_level);
    }
  }
};

TEST(LeakageLabeler, FindsLeakageCloud) {
  Cloud c;
  c.add({1.0, 0.0}, 0.1, 0, 0, 1000);
  c.add({-1.0, 0.0}, 0.1, 1, 1, 1000);
  c.add({0.0, -1.5}, 0.1, 1, 2, 15);  // Natural leakage off the chord.

  const LeakageLabeling out = label_natural_leakage(c.mtv, c.prepared);
  EXPECT_TRUE(out.found_leakage);
  EXPECT_GE(out.leakage_count, 12u);
  EXPECT_LE(out.leakage_count, 25u);

  std::size_t correct2 = 0;
  for (std::size_t s = 0; s < c.mtv.size(); ++s)
    if (c.truth[s] == 2 && out.levels[s] == 2) ++correct2;
  EXPECT_GE(correct2, 12u);
}

TEST(LeakageLabeler, RelaxationChordIsNotLeakage) {
  Cloud c;
  c.add({1.0, 0.0}, 0.08, 0, 0, 800);
  c.add({-1.0, 0.0}, 0.08, 1, 1, 800);
  // Relaxed traces: MTVs spread along the chord between the two states.
  for (int i = 0; i < 60; ++i) {
    const double t = -0.8 + 1.6 * c.rng.uniform();
    c.mtv.emplace_back(t + c.rng.normal(0.0, 0.08),
                       c.rng.normal(0.0, 0.08));
    c.prepared.push_back(1);
    c.truth.push_back(1);
  }

  const LeakageLabeling out = label_natural_leakage(c.mtv, c.prepared);
  // No point here is true leakage; at most stray noise may be tagged.
  EXPECT_LE(out.leakage_count, 6u);
}

TEST(LeakageLabeler, NoLeakageFoundIsReported) {
  Cloud c;
  c.add({1.0, 0.0}, 0.1, 0, 0, 500);
  c.add({-1.0, 0.0}, 0.1, 1, 1, 500);
  const LeakageLabeling out = label_natural_leakage(c.mtv, c.prepared);
  EXPECT_FALSE(out.found_leakage);
  EXPECT_EQ(out.leakage_count, 0u);
  // Computational labels still follow the nearest centroid.
  std::size_t correct = 0;
  for (std::size_t s = 0; s < c.mtv.size(); ++s)
    if (out.levels[s] == c.truth[s]) ++correct;
  EXPECT_GE(correct, c.mtv.size() * 99 / 100);
}

TEST(LeakageLabeler, CentroidsAreOrderedByLevel) {
  Cloud c;
  c.add({2.0, 1.0}, 0.05, 0, 0, 400);
  c.add({-2.0, 1.0}, 0.05, 1, 1, 400);
  c.add({0.0, -2.0}, 0.05, 0, 2, 12);
  const LeakageLabeling out = label_natural_leakage(c.mtv, c.prepared);
  ASSERT_TRUE(out.found_leakage);
  EXPECT_LT(std::abs(out.centroids[0] - std::complex<double>(2.0, 1.0)), 0.2);
  EXPECT_LT(std::abs(out.centroids[1] - std::complex<double>(-2.0, 1.0)), 0.2);
  EXPECT_LT(std::abs(out.centroids[2] - std::complex<double>(0.0, -2.0)), 0.4);
}

TEST(LeakageLabeler, InputValidation) {
  Cloud c;
  c.add({1.0, 0.0}, 0.1, 0, 0, 40);
  // Missing |1> preparations.
  EXPECT_THROW(label_natural_leakage(c.mtv, c.prepared), Error);

  std::vector<int> bad(c.mtv.size(), 5);
  EXPECT_THROW(label_natural_leakage(c.mtv, bad), Error);
}

}  // namespace
}  // namespace mlqr
