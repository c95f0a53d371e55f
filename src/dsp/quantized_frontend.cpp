#include "dsp/quantized_frontend.h"

#include <algorithm>
#include <cfenv>
#include <cmath>
#include <cstdint>

#include "common/error.h"
#include "common/serialize.h"
#include "common/simd.h"

namespace mlqr {

QuantizedFrontend QuantizedFrontend::build(const Demodulator& demod,
                                           const ChipMfBank& bank,
                                           const FeatureNormalizer& norm,
                                           std::size_t n_samples,
                                           double trace_bound,
                                           const FixedPointFormat& feature_fmt,
                                           const QuantizationConfig& cfg) {
  MLQR_CHECK(n_samples > 0);
  MLQR_CHECK(trace_bound > 0.0);
  MLQR_CHECK(cfg.weight_bits >= 2 && cfg.weight_bits <= 16);
  const std::size_t n_qubits = bank.num_qubits();
  const std::size_t per_q = bank.features_per_qubit();
  const std::size_t n_filters = bank.total_features();
  MLQR_CHECK(demod.num_qubits() == n_qubits);
  MLQR_CHECK_MSG(norm.dim() == n_filters,
                 "normalizer dim " << norm.dim() << " != " << n_filters);

  QuantizedFrontend fe;
  fe.n_samples_ = n_samples;
  fe.n_qubits_ = n_qubits;
  fe.trace_fmt_ = fit_format(-trace_bound, trace_bound, 16);
  fe.feature_fmt_ = feature_fmt;
  fe.lo_fmt_ = fit_format(-1.0, 1.0, 16);
  fe.kernel_fmt_.reserve(n_filters);
  fe.table_.assign(n_filters, n_samples);
  fe.scale_.reserve(n_filters);
  fe.offset_.reserve(n_filters);
  fe.lo_.assign(n_qubits * n_samples * 2, 0);

  // Scratch: one qubit's quantized LO phasors, then that qubit's rotated
  // kernels. The LO table is quantized first so the kernels absorb the
  // LUT's rounding error exactly as the fabric would see it.
  std::vector<Complexd> rotated(n_samples);
  for (std::size_t q = 0; q < n_qubits; ++q) {
    std::int16_t* lut = fe.lo_.data() + q * n_samples * 2;
    for (std::size_t t = 0; t < n_samples; ++t) {
      const Complexd lo = demod.lo_phase(q, t);
      lut[2 * t] = static_cast<std::int16_t>(to_code(lo.real(), fe.lo_fmt_));
      lut[2 * t + 1] =
          static_cast<std::int16_t>(to_code(lo.imag(), fe.lo_fmt_));
    }

    for (std::size_t f = 0; f < per_q; ++f) {
      const MatchedFilter& mf = bank.bank(q).filter(f);
      MLQR_CHECK_MSG(mf.length() == n_samples,
                     "kernel length " << mf.length() << " != " << n_samples);
      double bound = 0.0;
      for (std::size_t t = 0; t < n_samples; ++t) {
        const Complexd lo{from_code(lut[2 * t], fe.lo_fmt_),
                          from_code(lut[2 * t + 1], fe.lo_fmt_)};
        rotated[t] = mf.kernel()[t] * lo;
        bound = std::max({bound, std::abs(rotated[t].real()),
                          std::abs(rotated[t].imag())});
      }
      const FixedPointFormat kfmt =
          bound > 0.0 ? fit_format(-bound, bound, cfg.weight_bits)
                      : FixedPointFormat{cfg.weight_bits, cfg.weight_bits - 1};

      std::int16_t* kr = fe.table_.row_r(q * per_q + f);
      std::int16_t* ki = fe.table_.row_i(q * per_q + f);
      for (std::size_t t = 0; t < n_samples; ++t) {
        const std::int64_t cr = to_code(rotated[t].real(), kfmt);
        const std::int64_t ci = to_code(rotated[t].imag(), kfmt);
        // fit_format over a symmetric range keeps |code| <= 2^(W-1)-1;
        // the integer kernels' madd pairing relies on the kernel operand
        // never being -2^15, so pin that invariant where the codes are
        // minted.
        MLQR_CHECK(cr > INT16_MIN && ci > INT16_MIN);
        kr[t] = static_cast<std::int16_t>(cr);
        ki[t] = static_cast<std::int16_t>(ci);
      }

      // Fold MF bias and the normalizer's affine into one requant step:
      //   z = (acc * k_res * x_res - bias - mean) / std.
      const std::size_t j = q * per_q + f;
      const double std_dev = static_cast<double>(norm.std_dev()[j]);
      fe.kernel_fmt_.push_back(kfmt);
      fe.scale_.push_back(kfmt.resolution() * fe.trace_fmt_.resolution() /
                          std_dev);
      fe.offset_.push_back(
          -(mf.bias() + static_cast<double>(norm.mean()[j])) / std_dev);
    }
  }
  fe.table_.finalize_strip();
  return fe;
}

void QuantizedFrontend::save(std::ostream& os) const {
  io::write_u64(os, n_samples_);
  io::write_u64(os, n_qubits_);
  save_format(os, trace_fmt_);
  save_format(os, feature_fmt_);
  save_format(os, lo_fmt_);
  io::write_u64(os, kernel_fmt_.size());
  for (const FixedPointFormat& fmt : kernel_fmt_) save_format(os, fmt);
  table_.save_rows(os);
  io::write_vec_f64(os, scale_);
  io::write_vec_f64(os, offset_);
  io::write_vec_i16(os, lo_);
}

QuantizedFrontend QuantizedFrontend::load(std::istream& is) {
  QuantizedFrontend fe;
  fe.n_samples_ = io::read_count(is);
  fe.n_qubits_ = io::read_count(is, 4096);
  MLQR_CHECK_MSG(fe.n_samples_ > 0 && fe.n_qubits_ > 0,
                 "corrupt quantized front-end dims");
  fe.trace_fmt_ = load_format(is);
  fe.feature_fmt_ = load_format(is);
  fe.lo_fmt_ = load_format(is);
  // Each format is 8 serialized bytes, so the filter count is bounded by
  // the bytes actually left in the stream before the formats allocate.
  const std::size_t n_filters = io::read_count(is, io::kMaxSerializedCount, 8);
  fe.kernel_fmt_.reserve(n_filters);
  for (std::size_t f = 0; f < n_filters; ++f)
    fe.kernel_fmt_.push_back(load_format(is));
  // load_rows re-pins the madd-safety invariant (no -2^15 code) on this
  // untrusted input.
  fe.table_.load_rows(is, fe.n_samples_);
  fe.scale_ = io::read_vec_f64(is);
  fe.offset_ = io::read_vec_f64(is);
  fe.lo_ = io::read_vec_i16(is);
  MLQR_CHECK_MSG(n_filters > 0 && fe.scale_.size() == n_filters &&
                     fe.offset_.size() == n_filters &&
                     fe.table_.row_elements() == n_filters * fe.n_samples_ &&
                     fe.lo_.size() == fe.n_qubits_ * fe.n_samples_ * 2,
                 "quantized front-end tables do not match their dims ("
                     << n_filters << " filters x " << fe.n_samples_
                     << " samples, " << fe.n_qubits_ << " qubits)");
  // The requant constants are untrusted too: a NaN would reach an
  // undefined float -> int conversion, and the int32 feature codes need a
  // grid that fits them.
  for (std::size_t f = 0; f < n_filters; ++f)
    MLQR_CHECK_MSG(std::isfinite(fe.scale_[f]) && fe.scale_[f] > 0.0 &&
                       std::isfinite(fe.offset_[f]),
                   "quantized front-end filter " << f << " has requant scale "
                                                 << fe.scale_[f] << ", offset "
                                                 << fe.offset_[f]);
  MLQR_CHECK_MSG(fe.feature_fmt_.total_bits <= 32,
                 "quantized front-end feature grid is "
                     << fe.feature_fmt_.total_bits << " bits wide");
  return fe;
}

// The front-end's two rounding stages, the trace quantizer and the feature
// requant, run on the dispatched tier when `nearest`. Their vector kernels
// round with the MXCSR, so they match round_half_even only under the
// default round-to-nearest FP environment; the callers test it once per
// call, and any other mode takes the scalar references, which keep
// to_code()'s fesetround immunity.

void QuantizedFrontend::quantize_trace(bool nearest, const IqTrace& trace,
                                       std::int16_t* xi,
                                       std::int16_t* xq) const {
  trace.check_consistent();
  MLQR_CHECK_MSG(trace.size() >= n_samples_,
                 "trace shorter than front-end window: " << trace.size()
                                                         << " < " << n_samples_);
  // Scaling by 2^F is exact, so rounding happens only in the round-half-
  // even step (deterministic).
  const double code_scale = std::ldexp(1.0, trace_fmt_.frac_bits);
  const auto lo = static_cast<std::int32_t>(trace_fmt_.min_code());
  const auto hi = static_cast<std::int32_t>(trace_fmt_.max_code());
  const auto quantize_codes = nearest ? simd::kernels().quantize_codes_i16
                                      : simd::quantize_codes_i16_scalar;
  quantize_codes(trace.i.data(), n_samples_, code_scale, lo, hi, xi);
  quantize_codes(trace.q.data(), n_samples_, code_scale, lo, hi, xq);
}

void QuantizedFrontend::requant(bool nearest, const std::int64_t* accs,
                                std::int32_t* out) const {
  // z = acc * scale + offset in double from the exact integer sum, clamped
  // and rounded onto the feature grid: to_code(clamp(z), feature_fmt_).
  const auto requant_features = nearest ? simd::kernels().requant_features
                                        : simd::requant_features_scalar;
  requant_features(accs, n_filters(), scale_.data(), offset_.data(),
                   static_cast<double>(kMaxAbsFeatureZ),
                   std::ldexp(1.0, feature_fmt_.frac_bits),
                   static_cast<std::int32_t>(feature_fmt_.min_code()),
                   static_cast<std::int32_t>(feature_fmt_.max_code()), out);
}

void QuantizedFrontend::features_into(const IqTrace& trace,
                                      InferenceScratch& scratch) const {
  MLQR_CHECK(n_samples_ > 0);
  const std::size_t n = n_samples_;
  const bool nearest = std::fegetround() == FE_TONEAREST;
  // Pass 0: raw floats -> saturating ADC-grid codes.
  scratch.int_trace_i.resize(n);
  scratch.int_trace_q.resize(n);
  quantize_trace(nearest, trace, scratch.int_trace_i.data(),
                 scratch.int_trace_q.data());

  // Pass 1: every filter is two int16 dot products against the raw codes
  // (widening multiply-add into int64 lanes); the int64 accumulator is
  // exact, so the vector reassociation is bit-identical to the scalar loop
  // on every tier. Pass 2 requants the whole row of sums at once.
  const simd::Kernels& k = simd::kernels();
  const std::int16_t* xi = scratch.int_trace_i.data();
  const std::int16_t* xq = scratch.int_trace_q.data();
  scratch.feature_accs.resize(n_filters());
  for (std::size_t f = 0; f < n_filters(); ++f)
    scratch.feature_accs[f] = k.fused_dot_i16_strip(
        table_.row_r(f), table_.row_i(f), xi, xq, n, table_.strip());
  scratch.int_features.resize(n_filters());
  requant(nearest, scratch.feature_accs.data(), scratch.int_features.data());
}

void QuantizedFrontend::features_block_into(std::size_t block,
                                            const IqTrace* const* traces,
                                            InferenceScratch& scratch,
                                            std::int32_t* out,
                                            std::size_t out_stride) const {
  MLQR_CHECK(n_samples_ > 0);
  const std::size_t n = n_samples_;
  const std::size_t n_f = n_filters();
  // Small shot blocks keep the quantized codes (2 x n int16 per shot) L1
  // resident while one kernel row pair streams across them; the full code
  // table then loads once per block of shots instead of once per shot.
  constexpr std::size_t kShotBlock = 8;
  scratch.block_trace_i.resize(kShotBlock * n);
  scratch.block_trace_q.resize(kShotBlock * n);
  scratch.feature_accs.resize(kShotBlock * n_f);
  const bool nearest = std::fegetround() == FE_TONEAREST;
  const simd::Kernels& k = simd::kernels();
  const std::size_t strip = table_.strip();
  for (std::size_t b0 = 0; b0 < block; b0 += kShotBlock) {
    const std::size_t nb = std::min(kShotBlock, block - b0);
    const std::int16_t* xi_ptr[kShotBlock];
    const std::int16_t* xq_ptr[kShotBlock];
    for (std::size_t s = 0; s < nb; ++s) {
      std::int16_t* xi = scratch.block_trace_i.data() + s * n;
      std::int16_t* xq = scratch.block_trace_q.data() + s * n;
      quantize_trace(nearest, *traces[b0 + s], xi, xq);
      xi_ptr[s] = xi;
      xq_ptr[s] = xq;
    }
    // One kernel-row pass scores four shots at a time; the int64 sums are
    // exact, so every score — and each shot's requant — is identical to
    // the per-shot features_into chain.
    std::int64_t* accs = scratch.feature_accs.data();
    for (std::size_t f = 0; f < n_f; ++f) {
      const std::int16_t* kr = table_.row_r(f);
      const std::int16_t* ki = table_.row_i(f);
      std::int64_t x4[4];
      std::size_t s = 0;
      for (; s + 4 <= nb; s += 4) {
        k.fused_dot_i16_strip_x4(kr, ki, xi_ptr + s, xq_ptr + s, n, strip, x4);
        for (std::size_t j = 0; j < 4; ++j) accs[(s + j) * n_f + f] = x4[j];
      }
      for (; s < nb; ++s)
        accs[s * n_f + f] =
            k.fused_dot_i16_strip(kr, ki, xi_ptr[s], xq_ptr[s], n, strip);
    }
    for (std::size_t s = 0; s < nb; ++s)
      requant(nearest, accs + s * n_f, out + (b0 + s) * out_stride);
  }
}

std::span<const std::int16_t> QuantizedFrontend::lo_table(
    std::size_t qubit) const {
  MLQR_CHECK(qubit < n_qubits_);
  return {lo_.data() + qubit * n_samples_ * 2, n_samples_ * 2};
}

}  // namespace mlqr
