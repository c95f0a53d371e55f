#include "linalg/stats.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace mlqr {
namespace {

TEST(Stats, ColumnMeanSelectedRows) {
  const std::vector<double> data{1, 2, 3, 4, 5, 6, 7, 8};  // 4 rows x 2.
  const std::vector<std::size_t> rows{0, 2};
  const auto mu = column_mean(data, 2, rows);
  EXPECT_DOUBLE_EQ(mu[0], 3.0);
  EXPECT_DOUBLE_EQ(mu[1], 4.0);
}

TEST(Stats, CovarianceKnownValues) {
  // Two perfectly correlated columns.
  const std::vector<double> data{0, 0, 1, 2, 2, 4};
  const std::vector<std::size_t> rows{0, 1, 2};
  const auto mu = column_mean(data, 2, rows);
  const Matrix cov = covariance(data, 2, rows, mu);
  EXPECT_NEAR(cov(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(cov(1, 1), 4.0, 1e-12);
  EXPECT_NEAR(cov(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(cov(0, 1), cov(1, 0), 1e-15);
}

TEST(Stats, ScalarHelpers) {
  const std::vector<double> xs{2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(mean(xs), 4.0);
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng rng(5);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(rng.normal(2.0, 3.0));
    rs.add(xs.back());
  }
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-10);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-8);
  EXPECT_EQ(rs.count(), 1000u);
}

TEST(Stats, RunningStatsSmallCounts) {
  RunningStats rs;
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  rs.add(5.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(Stats, EmptyInputsThrow) {
  const std::vector<double> data{1.0, 2.0};
  EXPECT_THROW(column_mean(data, 2, std::vector<std::size_t>{}), Error);
  EXPECT_THROW(mean(std::vector<double>{}), Error);
  EXPECT_THROW(variance(std::vector<double>{1.0}), Error);
}

}  // namespace
}  // namespace mlqr
