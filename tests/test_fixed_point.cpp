#include "common/fixed_point.h"

#include <gtest/gtest.h>

#include <cfenv>
#include <cmath>
#include <vector>

#include "common/error.h"

namespace mlqr {
namespace {

TEST(FixedPoint, ResolutionAndBounds) {
  const FixedPointFormat fmt{8, 4};
  EXPECT_DOUBLE_EQ(fmt.resolution(), 1.0 / 16.0);
  EXPECT_DOUBLE_EQ(fmt.max_value(), (127.0) / 16.0);
  EXPECT_DOUBLE_EQ(fmt.min_value(), -128.0 / 16.0);
}

TEST(FixedPoint, QuantizeRoundsToGrid) {
  const FixedPointFormat fmt{8, 4};
  EXPECT_DOUBLE_EQ(quantize(0.1, fmt), 2.0 / 16.0);  // Nearest step.
  EXPECT_DOUBLE_EQ(quantize(0.0, fmt), 0.0);
  EXPECT_DOUBLE_EQ(quantize(1.0, fmt), 1.0);  // Exactly representable.
}

TEST(FixedPoint, QuantizeSaturates) {
  const FixedPointFormat fmt{8, 4};
  EXPECT_DOUBLE_EQ(quantize(1000.0, fmt), fmt.max_value());
  EXPECT_DOUBLE_EQ(quantize(-1000.0, fmt), fmt.min_value());
}

TEST(FixedPoint, ErrorBoundedByHalfStep) {
  const FixedPointFormat fmt{12, 8};
  for (int i = 0; i < 1000; ++i) {
    const double x = -3.0 + 0.006 * i;
    EXPECT_LE(std::abs(x - quantize(x, fmt)), 0.5 * fmt.resolution() + 1e-12)
        << x;
  }
}

TEST(FixedPoint, QuantizeLandsOnGrid) {
  const FixedPointFormat fmt{6, 2};
  for (const double x : {0.13, -0.61, 5.0}) {
    const double steps = quantize(x, fmt) / fmt.resolution();
    EXPECT_NEAR(steps, std::round(steps), 1e-6);
  }
}

TEST(FixedPoint, FitFormatHoldsRange) {
  const FixedPointFormat fmt = fit_format(-2.5, 3.7, 16);
  EXPECT_GE(fmt.max_value(), 3.7);
  EXPECT_LE(fmt.min_value(), -2.5);
  EXPECT_EQ(fmt.total_bits, 16);
}

TEST(FixedPoint, FitFormatMaximizesFraction) {
  // Range within [-1, 1): only the sign + fraction are needed.
  const FixedPointFormat fmt = fit_format(-0.9, 0.9, 8);
  EXPECT_GE(fmt.frac_bits, 6);
}

TEST(FixedPoint, RejectsBadWidths) {
  EXPECT_THROW(quantize(1.0, FixedPointFormat{1, 0}), Error);
  EXPECT_THROW(fit_format(0.0, 1.0, 64), Error);
}

TEST(FixedPoint, RoundHalfEvenTies) {
  EXPECT_DOUBLE_EQ(round_half_even(0.5), 0.0);
  EXPECT_DOUBLE_EQ(round_half_even(1.5), 2.0);
  EXPECT_DOUBLE_EQ(round_half_even(2.5), 2.0);
  EXPECT_DOUBLE_EQ(round_half_even(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(round_half_even(-1.5), -2.0);
  EXPECT_DOUBLE_EQ(round_half_even(-2.5), -2.0);
  EXPECT_DOUBLE_EQ(round_half_even(2.4999999), 2.0);
  EXPECT_DOUBLE_EQ(round_half_even(2.5000001), 3.0);
}

TEST(FixedPoint, QuantizeIgnoresFpRoundingMode) {
  // std::nearbyint silently follows fesetround; the explicit
  // round-half-even must not. Probes include exact half-steps of the grid.
  const FixedPointFormat fmt{8, 4};
  const std::vector<double> probes{0.1,     -0.61,    0.03125, -0.03125,
                                   0.09375, -0.15625, 3.3,     -2.7};
  std::vector<double> expected;
  for (double v : probes) expected.push_back(quantize(v, fmt));
  // Half-step ties land on the even code regardless of mode.
  EXPECT_DOUBLE_EQ(quantize(0.03125, fmt), 0.0);       // 0.5/16 -> 0.
  EXPECT_DOUBLE_EQ(quantize(0.09375, fmt), 2.0 / 16);  // 1.5/16 -> 2.
  for (int mode : {FE_DOWNWARD, FE_UPWARD, FE_TOWARDZERO}) {
    ASSERT_EQ(std::fesetround(mode), 0);
    for (std::size_t i = 0; i < probes.size(); ++i)
      EXPECT_DOUBLE_EQ(quantize(probes[i], fmt), expected[i])
          << "probe " << probes[i] << " under mode " << mode;
    ASSERT_EQ(std::fesetround(FE_TONEAREST), 0);
  }
}

TEST(FixedPoint, FitFormatThrowsWhenRangeCannotFit) {
  // Contract: "fits without saturation" — a bound at or past 2^(W-1) has
  // no conforming format and must throw, not silently saturate.
  EXPECT_THROW(fit_format(-40000.0, 40000.0, 16), Error);
  EXPECT_THROW(fit_format(0.0, 200.0, 8), Error);
  EXPECT_NO_THROW(fit_format(0.0, 127.0, 8));
  // Edge: bound in the (max_value, 2^int_bits) gap of the widest format.
  EXPECT_THROW(fit_format(0.0, 127.5, 8), Error);
  const FixedPointFormat f = fit_format(-0.995, 0.995, 8);
  EXPECT_GE(f.max_value(), 0.995);
}

TEST(FixedPoint, SaturatingFormatClipsInsteadOfThrowing) {
  const FixedPointFormat wide = saturating_format(-200.0, 200.0, 8);
  EXPECT_EQ(wide.total_bits, 8);
  EXPECT_EQ(wide.frac_bits, 0);
  // When the range does fit, it agrees with fit_format.
  EXPECT_EQ(saturating_format(-0.9, 0.9, 8).frac_bits,
            fit_format(-0.9, 0.9, 8).frac_bits);
}

TEST(FixedPoint, CodeConversionSaturates) {
  const FixedPointFormat fmt{12, 6};
  EXPECT_EQ(to_code(1.0, fmt), 64);
  EXPECT_EQ(to_code(-1.0, fmt), -64);
  EXPECT_EQ(to_code(1000.0, fmt), fmt.max_code());
  EXPECT_EQ(to_code(-1000.0, fmt), fmt.min_code());
  EXPECT_DOUBLE_EQ(from_code(64, fmt), 1.0);
  EXPECT_DOUBLE_EQ(from_code(fmt.min_code(), fmt), fmt.min_value());
}

TEST(FixedPoint, ShiftRoundHalfEven) {
  EXPECT_EQ(shift_round_half_even(13, 2), 3);    // 3.25 -> 3.
  EXPECT_EQ(shift_round_half_even(10, 2), 2);    // 2.5 ties to even 2.
  EXPECT_EQ(shift_round_half_even(14, 2), 4);    // 3.5 ties to even 4.
  EXPECT_EQ(shift_round_half_even(-10, 2), -2);  // -2.5 ties to even -2.
  EXPECT_EQ(shift_round_half_even(-14, 2), -4);  // -3.5 ties to even -4.
  EXPECT_EQ(shift_round_half_even(5, 0), 5);
  EXPECT_EQ(shift_round_half_even(3, -2), 12);
}

TEST(FixedPoint, SaturateToBits) {
  EXPECT_EQ(saturate_to_bits(200, 8), 127);
  EXPECT_EQ(saturate_to_bits(-200, 8), -128);
  EXPECT_EQ(saturate_to_bits(100, 8), 100);
}

class FixedPointRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(FixedPointRoundTrip, GridValuesAreFixedPoints) {
  const int bits = GetParam();
  const FixedPointFormat fmt{bits, bits / 2};
  // Every representable value must quantize to itself.
  for (int code = -10; code <= 10; ++code) {
    const double v = code * fmt.resolution();
    EXPECT_DOUBLE_EQ(quantize(v, fmt), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, FixedPointRoundTrip,
                         ::testing::Values(6, 8, 12, 16, 24));

}  // namespace
}  // namespace mlqr
