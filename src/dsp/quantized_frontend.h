// Fused integer demodulation + matched filtering — the FPGA front-end
// datapath in software (paper SSVI: the whole pipeline runs in narrow
// ap_fixed arithmetic).
//
// The float path computes per qubit z_q(t) = x(t) * lo_q(t) (digital
// down-conversion) and then each matched-filter score
// sum_t Re(K_f(t) z_q(t)). Both stages are linear in the raw trace x, so
// they fuse: pre-rotating every kernel by the qubit's int16 LO lookup
// table, R_{q,f}(t) = K_f(t) * lo16_q(t), turns the whole front-end into
// two int16 dot products per filter over the raw trace,
//     acc = sum_t [ Re R(t) * I(t) - Im R(t) * Q(t) ]   (int64 accumulator)
// in ONE pass — no per-qubit baseband buffer at all. The per-filter bias
// and the feature normalizer's (x - mean)/std are folded into a single
// affine requantization from the exact int64 accumulator onto the MLP's
// input code grid (the FPGA's post-MAC rescale stage; computed in double
// from the exact integer sum, so still bit-deterministic).
//
// Storage is SoA: one contiguous int16 array for all real kernel rows and
// one for all imaginary rows, filter-major, so the hot loop streams
// sequentially. Note one deliberate deviation from the literal FPGA
// schedule: fusing skips the int16 requantization of the intermediate
// baseband, keeping full precision between DDC and MF (slightly
// optimistic, never pessimistic, for the fidelity-vs-width ablation).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/fixed_point.h"
#include "discrim/inference_scratch.h"
#include "dsp/demodulator.h"
#include "dsp/fused_kernel_table.h"
#include "mf/mf_bank.h"
#include "nn/normalizer.h"
#include "sim/iq.h"

namespace mlqr {

/// Integer front-end: raw IQ trace -> normalized feature codes on
/// `feature_format()`'s grid, ready for QuantizedMlp.
class QuantizedFrontend {
 public:
  QuantizedFrontend() = default;

  /// Builds the fused tables from a trained float front-end.
  /// `trace_bound` is the largest |I|/|Q| seen in calibration data (sets
  /// the ADC code grid); `feature_fmt` is the MLP input grid the caller
  /// calibrated from float features; `cfg.weight_bits` sizes the kernel
  /// codes.
  static QuantizedFrontend build(const Demodulator& demod,
                                 const ChipMfBank& bank,
                                 const FeatureNormalizer& norm,
                                 std::size_t n_samples, double trace_bound,
                                 const FixedPointFormat& feature_fmt,
                                 const QuantizationConfig& cfg);

  /// One pass over the raw trace: converts the first n_samples() I/Q pairs
  /// to trace codes (scratch.int_trace_*) and writes every filter's
  /// normalized feature code into scratch.int_features. Thread-safe for
  /// distinct scratch instances.
  void features_into(const IqTrace& trace, InferenceScratch& scratch) const;

  /// Feature extraction for `block` traces at once, writing shot s's
  /// feature codes to out[s * out_stride + f]. Bit-identical to
  /// features_into per shot (same quantize kernels, same per-(filter,
  /// shot) accumulate + requant chain — only the loop order differs);
  /// the kernel code table streams once per small shot block instead of
  /// once per shot, with the quantized trace codes staged L1-resident in
  /// scratch.block_trace_*.
  void features_block_into(std::size_t block, const IqTrace* const* traces,
                           InferenceScratch& scratch, std::int32_t* out,
                           std::size_t out_stride) const;

  std::size_t n_samples() const { return n_samples_; }
  std::size_t n_filters() const { return scale_.size(); }
  std::size_t num_qubits() const { return n_qubits_; }
  const FixedPointFormat& trace_format() const { return trace_fmt_; }
  const FixedPointFormat& feature_format() const { return feature_fmt_; }
  /// Per-filter rotated-kernel format (narrowest fraction is the effective
  /// kernel precision for the resource model).
  const FixedPointFormat& kernel_format(std::size_t f) const {
    return kernel_fmt_.at(f);
  }
  /// The int16 LO lookup table for one qubit (interleaved cos/sin codes on
  /// a <W,2> grid) — exposed for tests and the FPGA NCO model.
  std::span<const std::int16_t> lo_table(std::size_t qubit) const;
  const FixedPointFormat& lo_format() const { return lo_fmt_; }

  /// Binary little-endian persistence of every table and format the
  /// integer datapath needs (calibration snapshot leaf); a reloaded
  /// front-end emits bit-identical feature codes.
  void save(std::ostream& os) const;
  static QuantizedFrontend load(std::istream& is);

 private:
  // Both rounding stages run their vector kernels only when `nearest`
  // (the FP environment rounds to nearest; see quantized_frontend.cpp).
  /// Pass 0 for one trace: its first n_samples() I/Q pairs as trace codes.
  void quantize_trace(bool nearest, const IqTrace& trace, std::int16_t* xi,
                      std::int16_t* xq) const;
  /// One shot's filter sums -> its feature codes.
  void requant(bool nearest, const std::int64_t* accs,
               std::int32_t* out) const;

  std::size_t n_samples_ = 0;
  std::size_t n_qubits_ = 0;
  FixedPointFormat trace_fmt_;
  FixedPointFormat feature_fmt_;
  FixedPointFormat lo_fmt_;
  std::vector<FixedPointFormat> kernel_fmt_;  ///< Per filter.
  FusedKernelTable<std::int16_t> table_;  ///< Rotated kernel code rows (SoA).
  std::vector<double> scale_;     ///< Per filter: acc -> normalized value.
  std::vector<double> offset_;    ///< Per filter: -(bias + mean)/std.
  std::vector<std::int16_t> lo_;  ///< n_qubits x n_samples x 2 (cos, sin).
};

}  // namespace mlqr
