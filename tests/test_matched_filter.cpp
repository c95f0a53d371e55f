#include "mf/matched_filter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "common/error.h"
#include "common/rng.h"

namespace mlqr {
namespace {

/// Synthetic two-class traces: constant complex levels + white noise.
std::vector<BasebandTrace> make_traces(Complexd mu_a, Complexd mu_b,
                                       std::size_t n_per_class,
                                       std::size_t n_samples, double sigma,
                                       std::vector<std::size_t>& class_a,
                                       std::vector<std::size_t>& class_b,
                                       std::uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<BasebandTrace> traces;
  for (std::size_t s = 0; s < 2 * n_per_class; ++s) {
    const bool is_b = s >= n_per_class;
    BasebandTrace tr(n_samples);
    for (std::size_t t = 0; t < n_samples; ++t)
      tr[t] = (is_b ? mu_b : mu_a) +
              Complexd{rng.normal(0.0, sigma), rng.normal(0.0, sigma)};
    (is_b ? class_b : class_a).push_back(s);
    traces.push_back(std::move(tr));
  }
  return traces;
}

TEST(MatchedFilter, CentroidsMapToPlusMinusHalf) {
  std::vector<std::size_t> a, b;
  const auto traces =
      make_traces({1.0, 0.0}, {-1.0, 0.5}, 200, 100, 0.5, a, b);
  const MatchedFilter mf = MatchedFilter::build(traces, a, b, 100);
  double mean_a = 0.0, mean_b = 0.0;
  for (std::size_t s : a) mean_a += mf.apply(traces[s]);
  for (std::size_t s : b) mean_b += mf.apply(traces[s]);
  mean_a /= a.size();
  mean_b /= b.size();
  EXPECT_NEAR(mean_a, -0.5, 0.05);
  EXPECT_NEAR(mean_b, 0.5, 0.05);
}

TEST(MatchedFilter, SeparatesFreshTraces) {
  std::vector<std::size_t> a, b;
  const auto traces = make_traces({1.0, 0.0}, {-1.0, 0.0}, 100, 200, 2.0, a, b);
  const MatchedFilter mf = MatchedFilter::build(traces, a, b, 200);

  // Fresh traces from the same distributions must classify by sign.
  std::vector<std::size_t> fa, fb;
  const auto fresh =
      make_traces({1.0, 0.0}, {-1.0, 0.0}, 200, 200, 2.0, fa, fb, 99);
  int correct = 0;
  for (std::size_t s : fa)
    if (mf.apply(fresh[s]) < 0.0) ++correct;
  for (std::size_t s : fb)
    if (mf.apply(fresh[s]) > 0.0) ++correct;
  EXPECT_GT(correct, 380);  // ~95%+ at this SNR.
}

TEST(MatchedFilter, SmallSampleKernelDoesNotInflateFreshScores) {
  // Kernel fit on 6 traces per class; fresh traces must score in the same
  // range as the training centroids (the smoothing + scale-floor defenses).
  std::vector<std::size_t> a, b;
  const auto traces = make_traces({0.5, 0.5}, {-0.5, -0.5}, 6, 300, 3.0, a, b);
  const MatchedFilter mf = MatchedFilter::build(traces, a, b, 300);
  std::vector<std::size_t> fa, fb;
  const auto fresh =
      make_traces({0.5, 0.5}, {-0.5, -0.5}, 300, 300, 3.0, fa, fb, 17);
  double mean_fresh_b = 0.0;
  for (std::size_t s : fb) mean_fresh_b += mf.apply(fresh[s]);
  mean_fresh_b /= fb.size();
  double mean_train_b = 0.0;
  for (std::size_t s : b) mean_train_b += mf.apply(traces[s]);
  mean_train_b /= b.size();
  // Training scores may be inflated, but by far less than the unsmoothed
  // own-noise bias (which at 300 bins / 6 traces would be several x).
  EXPECT_LT(std::abs(mean_train_b - mean_fresh_b), 0.6);
  EXPECT_GT(mean_fresh_b, 0.0);  // Still on the correct side.
}

TEST(MatchedFilter, WeightsBinsByInverseVariance) {
  // Class separation lives in the first half; second half is pure noise
  // with huge variance. The kernel must concentrate on the first half.
  Rng rng(5);
  std::vector<BasebandTrace> traces;
  std::vector<std::size_t> a, b;
  for (std::size_t s = 0; s < 200; ++s) {
    const bool is_b = s >= 100;
    BasebandTrace tr(100);
    for (std::size_t t = 0; t < 50; ++t)
      tr[t] = Complexd{is_b ? 1.0 : -1.0, 0.0} +
              Complexd{rng.normal(0.0, 0.3), rng.normal(0.0, 0.3)};
    for (std::size_t t = 50; t < 100; ++t)
      tr[t] = Complexd{rng.normal(0.0, 5.0), rng.normal(0.0, 5.0)};
    (is_b ? b : a).push_back(s);
    traces.push_back(std::move(tr));
  }
  const MatchedFilter mf = MatchedFilter::build(traces, a, b, 100, 1);
  double w_front = 0.0, w_back = 0.0;
  for (std::size_t t = 0; t < 50; ++t) w_front += std::abs(mf.kernel()[t]);
  for (std::size_t t = 50; t < 100; ++t) w_back += std::abs(mf.kernel()[t]);
  EXPECT_GT(w_front, 10.0 * w_back);
}

TEST(MatchedFilter, EmptyClassThrows) {
  std::vector<std::size_t> a, b;
  const auto traces = make_traces({1, 0}, {-1, 0}, 4, 16, 0.1, a, b);
  EXPECT_THROW(
      MatchedFilter::build(traces, a, std::vector<std::size_t>{}, 16), Error);
}

TEST(MatchedFilter, ShortTraceThrowsOnApply) {
  std::vector<std::size_t> a, b;
  const auto traces = make_traces({1, 0}, {-1, 0}, 4, 16, 0.1, a, b);
  const MatchedFilter mf = MatchedFilter::build(traces, a, b, 16);
  BasebandTrace tiny(4);
  EXPECT_THROW(mf.apply(tiny), Error);
}

TEST(MatchedFilter, IndistinguishableClassesHaveBoundedScale) {
  // Identical class means: separation ~ 0; the spread floor must keep the
  // kernel from exploding.
  std::vector<std::size_t> a, b;
  const auto traces = make_traces({0.0, 0.0}, {0.0, 0.0}, 50, 64, 1.0, a, b);
  const MatchedFilter mf = MatchedFilter::build(traces, a, b, 64);
  for (std::size_t s = 0; s < traces.size(); ++s)
    EXPECT_LT(std::abs(mf.apply(traces[s])), 50.0);
}

/// A filter's persisted bytes: kernel, bias and separation as f64 bits.
std::string filter_bytes(const MatchedFilter& mf) {
  std::ostringstream os;
  mf.save(os);
  return os.str();
}

TEST(MatchedFilter, SharedStatsBuildMatchesStandAloneBuild) {
  // A bank computes each class's statistics once and builds several filters
  // from them: every such filter must equal its stand-alone build bit for
  // bit, and building must leave the shared statistics untouched.
  std::vector<std::size_t> a, b;
  const auto traces =
      make_traces({0.8, -0.2}, {-0.4, 0.6}, 40, 128, 1.5, a, b, 11);
  const std::vector<std::size_t> c{1, 5, 44, 70, 79};  // A small third class.
  const BinStats sa = bin_stats(traces, a, 128);
  const BinStats sb = bin_stats(traces, b, 128);
  const BinStats sc = bin_stats(traces, c, 128);
  for (std::size_t smooth : {1u, 16u}) {
    EXPECT_EQ(filter_bytes(MatchedFilter::build(traces, a, sa, b, sb, smooth)),
              filter_bytes(MatchedFilter::build(traces, a, b, 128, smooth)));
    EXPECT_EQ(filter_bytes(MatchedFilter::build(traces, a, sa, c, sc, smooth)),
              filter_bytes(MatchedFilter::build(traces, a, c, 128, smooth)));
    EXPECT_EQ(filter_bytes(MatchedFilter::build(traces, b, sb, c, sc, smooth)),
              filter_bytes(MatchedFilter::build(traces, b, c, 128, smooth)));
  }
}

}  // namespace
}  // namespace mlqr
