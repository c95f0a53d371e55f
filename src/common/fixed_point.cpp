#include "common/fixed_point.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/serialize.h"

namespace mlqr {

double FixedPointFormat::resolution() const {
  return std::ldexp(1.0, -frac_bits);
}

double FixedPointFormat::max_value() const {
  // Largest positive code: 2^(W-1)-1 steps of 2^-F.
  return static_cast<double>(max_code()) * resolution();
}

double FixedPointFormat::min_value() const {
  return static_cast<double>(min_code()) * resolution();
}

std::int64_t FixedPointFormat::max_code() const {
  return (std::int64_t{1} << (total_bits - 1)) - 1;
}

std::int64_t FixedPointFormat::min_code() const {
  return -(std::int64_t{1} << (total_bits - 1));
}

double round_half_even(double value) {
  // Doubles at or beyond 2^52 are already integers (and NaN falls through).
  if (!(std::abs(value) < 4503599627370496.0)) return value;
  const double fl = std::floor(value);
  const double diff = value - fl;
  if (diff < 0.5) return fl;
  if (diff > 0.5) return fl + 1.0;
  return std::fmod(fl, 2.0) == 0.0 ? fl : fl + 1.0;
}

std::int64_t to_code(double value, const FixedPointFormat& fmt) {
  MLQR_CHECK(fmt.total_bits >= 2 && fmt.total_bits <= 48);
  // Scaling by 2^F is exact in binary floating point, so the only rounding
  // happens inside round_half_even — mode-independent by construction.
  const double scaled = round_half_even(std::ldexp(value, fmt.frac_bits));
  if (scaled <= static_cast<double>(fmt.min_code())) return fmt.min_code();
  if (scaled >= static_cast<double>(fmt.max_code())) return fmt.max_code();
  return static_cast<std::int64_t>(scaled);
}

double from_code(std::int64_t code, const FixedPointFormat& fmt) {
  return std::ldexp(static_cast<double>(code), -fmt.frac_bits);
}

double quantize(double value, const FixedPointFormat& fmt) {
  return from_code(to_code(value, fmt), fmt);
}

namespace {

/// Widest fraction whose max_value still covers `bound` (min_value is one
/// step deeper than max_value, so the positive side is binding). May exceed
/// total_bits-1 for sub-unit bounds (ap_fixed<W,I> with I <= 0: every code
/// bit lands below the binary point, so small kernels/weights use the full
/// code range instead of collapsing onto a handful of levels). Negative
/// result means the bound needs more than total_bits-1 integer bits.
int widest_covering_frac(double bound, int total_bits) {
  if (bound <= 0.0) return total_bits - 1;
  int exp = 0;
  std::frexp(bound, &exp);  // 2^(exp-1) <= bound < 2^exp.
  int frac = std::min(total_bits - 1 - exp, 45);  // Shifts must stay < 63.
  if ((FixedPointFormat{total_bits, frac}.max_value()) < bound) --frac;
  return frac;
}

}  // namespace

FixedPointFormat fit_format(double lo, double hi, int total_bits) {
  MLQR_CHECK(total_bits >= 2 && total_bits <= 48);
  const double bound = std::max(std::abs(lo), std::abs(hi));
  const int frac = widest_covering_frac(bound, total_bits);
  MLQR_CHECK_MSG(frac >= 0, "range [" << lo << ", " << hi
                                      << "] does not fit in " << total_bits
                                      << " signed bits");
  return FixedPointFormat{total_bits, frac};
}

FixedPointFormat saturating_format(double lo, double hi, int total_bits) {
  MLQR_CHECK(total_bits >= 2 && total_bits <= 48);
  const double bound = std::max(std::abs(lo), std::abs(hi));
  return FixedPointFormat{total_bits,
                          std::max(widest_covering_frac(bound, total_bits), 0)};
}

void save_format(std::ostream& os, const FixedPointFormat& fmt) {
  io::write_i32(os, fmt.total_bits);
  io::write_i32(os, fmt.frac_bits);
}

FixedPointFormat load_format(std::istream& is) {
  FixedPointFormat fmt;
  fmt.total_bits = io::read_i32(is);
  fmt.frac_bits = io::read_i32(is);
  // Same width window to_code enforces; frac may exceed W-1 (ap_fixed with
  // I <= 0) but never by more than the shift budget the arithmetic allows.
  MLQR_CHECK_MSG(fmt.total_bits >= 2 && fmt.total_bits <= 48,
                 "corrupt fixed-point width " << fmt.total_bits);
  MLQR_CHECK_MSG(fmt.frac_bits >= -62 && fmt.frac_bits <= 62,
                 "corrupt fixed-point fraction " << fmt.frac_bits);
  return fmt;
}

void save_quantization_config(std::ostream& os, const QuantizationConfig& cfg) {
  io::write_i32(os, cfg.weight_bits);
  io::write_i32(os, cfg.activation_bits);
  io::write_i32(os, cfg.accum_bits);
  io::write_u64(os, kMaxCalibrationShots);
}

QuantizationConfig load_quantization_config(std::istream& is) {
  QuantizationConfig cfg;
  cfg.weight_bits = io::read_i32(is);
  cfg.activation_bits = io::read_i32(is);
  cfg.accum_bits = io::read_i32(is);
  const std::uint64_t max_calibration_shots = io::read_u64(is);
  MLQR_CHECK_MSG(max_calibration_shots == kMaxCalibrationShots,
                 "quantization snapshot sets the retired max_calibration_shots "
                 "to " << max_calibration_shots << "; it is fixed at "
                       << kMaxCalibrationShots);
  MLQR_CHECK_MSG(cfg.weight_bits >= 2 && cfg.weight_bits <= 16 &&
                     cfg.activation_bits >= 2 && cfg.activation_bits <= 16 &&
                     cfg.accum_bits >= 8 && cfg.accum_bits <= 63,
                 "corrupt quantization config (W=" << cfg.weight_bits
                     << " A=" << cfg.activation_bits
                     << " ACC=" << cfg.accum_bits << ')');
  return cfg;
}

}  // namespace mlqr
