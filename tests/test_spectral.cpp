#include "cluster/spectral.h"

#include <gtest/gtest.h>

#include <array>

#include "common/error.h"
#include "common/rng.h"

namespace mlqr {
namespace {

TEST(Spectral, SeparatesThreeBlobs) {
  Rng rng(47);
  const std::array<std::pair<double, double>, 3> centers{
      {{0.0, 0.0}, {8.0, 0.0}, {4.0, 7.0}}};
  const std::size_t per = 60;
  std::vector<double> pts;
  for (const auto& [cx, cy] : centers)
    for (std::size_t i = 0; i < per; ++i) {
      pts.push_back(rng.normal(cx, 0.4));
      pts.push_back(rng.normal(cy, 0.4));
    }

  const std::vector<int> labels = spectral_cluster(pts, 2, rng);

  for (int blob = 0; blob < 3; ++blob) {
    std::array<int, 3> counts{};
    for (std::size_t i = 0; i < per; ++i) ++counts[labels[blob * per + i]];
    const int top = std::max({counts[0], counts[1], counts[2]});
    EXPECT_GE(top, static_cast<int>(per) - 3);
  }
}

TEST(Spectral, HandlesImbalancedClusterSizes) {
  // A tiny cluster far away from two big ones — the leakage scenario.
  Rng rng(53);
  std::vector<double> pts;
  auto blob = [&](double cx, double cy, std::size_t n, double s) {
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back(rng.normal(cx, s));
      pts.push_back(rng.normal(cy, s));
    }
  };
  blob(0.0, 0.0, 150, 0.4);
  blob(6.0, 0.0, 150, 0.4);
  blob(3.0, -6.0, 12, 0.4);

  const std::vector<int> labels = spectral_cluster(pts, 2, rng);
  // The 12 tail points must share one label distinct from the blobs.
  std::array<int, 3> tail_counts{};
  for (std::size_t i = 300; i < 312; ++i) ++tail_counts[labels[i]];
  const int tail_label = static_cast<int>(
      std::max_element(tail_counts.begin(), tail_counts.end()) -
      tail_counts.begin());
  EXPECT_GE(tail_counts[tail_label], 10);
  // And that label must be rare among the first blob.
  int first_blob_same = 0;
  for (std::size_t i = 0; i < 150; ++i)
    if (labels[i] == tail_label) ++first_blob_same;
  EXPECT_LE(first_blob_same, 5);
}

TEST(Spectral, RejectsOversizedInput) {
  Rng rng(59);
  std::vector<double> pts(2 * 3000, 0.0);
  EXPECT_THROW(spectral_cluster(pts, 2, rng), Error);
}

TEST(Spectral, RejectsTooFewPoints) {
  Rng rng(61);
  std::vector<double> pts{0.0, 0.0, 1.0, 1.0};
  EXPECT_THROW(spectral_cluster(pts, 2, rng), Error);
}

}  // namespace
}  // namespace mlqr
