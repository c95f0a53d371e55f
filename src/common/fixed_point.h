// Fixed-point quantization helpers.
//
// The FPGA resource model (src/fpga) and the integer inference backend
// (src/dsp/quantized_frontend, src/nn/quantized_mlp) both need
// ap_fixed-style rounding: a signed two's-complement value with
// `total_bits` bits, `frac_bits` of which sit right of the binary point
// (mirrors Vivado HLS ap_fixed<W,I>). All rounding here is explicit
// round-half-even — results do not depend on the runtime FP rounding mode.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "common/error.h"

namespace mlqr {

/// Describes an ap_fixed<W, W-F>-style signed fixed-point format.
struct FixedPointFormat {
  int total_bits = 16;  ///< W: total width including sign.
  int frac_bits = 10;   ///< F: fractional bits.

  double resolution() const;   ///< Smallest representable step (2^-F).
  double max_value() const;    ///< Largest representable value.
  double min_value() const;    ///< Most negative representable value.
  std::int64_t max_code() const;  ///< Largest integer code (2^(W-1)-1).
  std::int64_t min_code() const;  ///< Most negative code (-2^(W-1)).
};

/// Precision knobs shared by the integer inference backend: code widths for
/// weights/kernels, inter-stage activations, and the MAC accumulator.
struct QuantizationConfig {
  int weight_bits = 16;      ///< NN weight and matched-filter kernel codes.
  int activation_bits = 16;  ///< Feature / inter-layer activation codes.
  int accum_bits = 32;       ///< Saturating MAC accumulator width.
};

/// Range calibration reads at most this many calibration shots.
inline constexpr std::size_t kMaxCalibrationShots = 512;

/// Rounds to the nearest integer, ties to even. Unlike std::nearbyint the
/// result is independent of the runtime FP rounding mode (fesetround).
double round_half_even(double value);

/// Nearest integer code for `value`, saturating at the format bounds.
std::int64_t to_code(double value, const FixedPointFormat& fmt);

/// Real value of an integer code (code * 2^-F).
double from_code(std::int64_t code, const FixedPointFormat& fmt);

/// Clamps an integer code into the signed two's-complement range of `bits`
/// (the saturating behaviour of an ap_fixed accumulator). Inline: the
/// integer MLP's requant epilogue runs it per shot and output.
inline std::int64_t saturate_to_bits(std::int64_t code, int bits) {
  MLQR_CHECK(bits >= 2 && bits <= 63);
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
  return std::clamp(code, lo, hi);
}

/// Drops `shift` fractional bits from a fixed-point code with
/// round-half-even (the inter-layer requantization step of the integer
/// MLP). `shift` < 0 shifts left. Deterministic, no FP involved.
inline std::int64_t shift_round_half_even(std::int64_t code, int shift) {
  if (shift <= 0) return code << -shift;
  MLQR_CHECK(shift < 63);
  const std::int64_t half = std::int64_t{1} << (shift - 1);
  const std::int64_t mask = (std::int64_t{1} << shift) - 1;
  std::int64_t q = code >> shift;  // Arithmetic shift: floor division.
  const std::int64_t rem = code & mask;
  if (rem > half || (rem == half && (q & 1))) ++q;
  return q;
}

/// Rounds to nearest representable value, saturating at the format bounds.
double quantize(double value, const FixedPointFormat& fmt);

/// Picks the smallest fractional width (given total bits) such that every
/// value in [lo, hi] fits without saturation. Throws when no such format
/// exists (|bound| needs more than total_bits-1 integer bits) instead of
/// silently returning a saturating format.
FixedPointFormat fit_format(double lo, double hi, int total_bits);

/// Like fit_format but never throws: when the range cannot fit at the given
/// width it spends every integer bit and lets values clip at the format
/// bounds — the deployed activation-path behaviour, where saturating
/// outliers beats failing synthesis.
FixedPointFormat saturating_format(double lo, double hi, int total_bits);

/// Binary little-endian persistence of a format descriptor — one leaf of
/// the calibration snapshot layer (common/serialize.h). load_format throws
/// mlqr::Error on truncation or an out-of-range width.
void save_format(std::ostream& os, const FixedPointFormat& fmt);
FixedPointFormat load_format(std::istream& is);

/// Same for the precision-knob bundle the quantized backends carry. Its
/// wire keeps the slot of the retired max_calibration_shots: save writes
/// kMaxCalibrationShots, and load throws on any other value.
void save_quantization_config(std::ostream& os, const QuantizationConfig& cfg);
QuantizationConfig load_quantization_config(std::istream& is);

}  // namespace mlqr
