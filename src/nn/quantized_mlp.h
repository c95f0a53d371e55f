// Integer fixed-point MLP inference — the FPGA NN datapath in software,
// written once over the weight-code width.
//
// Each dense layer runs entirely in integers: weight codes times the
// incoming activation codes, summed with the pre-shifted bias into a
// saturating accumulator (cfg.accum_bits wide, the ap_fixed AP_SAT
// behaviour), ReLU as max(acc, 0), then a pure arithmetic-shift
// requantization (round-half-even) onto the next layer's activation grid.
// Because every format's scale is a power of two, no floating point touches
// the forward pass at all — labels are bit-identical across batch sizes,
// thread counts, shards and SIMD tiers by construction.
//
// Two code widths run that one chain (QuantizedCodeTraits):
//   int16 — int16 weight and activation codes on the dot_i16 /
//           lane_dot_i16 kernels (common/simd.h's Kernels table),
//           exact int64 accumulators and logits;
//   int8  — the W=8 point of the paper's quantization ablation: int8
//           weights on the dot_u8i8 / lane_dot_u8i8 kernels and int32
//           logits. The kernels' unsigned-times-signed operand convention
//           stores activations biased, u = code + 128 in a uint8, and the
//           bias is removed exactly with a per-output-row constant
//               corr[j] = -128 * sum_i w[j][i]
//           folded into the accumulator init — zero per-element cost,
//           exact by linearity.
//
// Formats come from calibration: weight fractions from the trained weight
// range (narrowed if needed so the calibrated pre-activation range,
// with 2x headroom, provably fits the accumulator width), activation
// fractions from the float network's hidden activations on calibration
// data. Both widths mint their codes through that same calibration, so
// they agree wherever the widths do.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <span>
#include <vector>

#include "common/fixed_point.h"
#include "nn/mlp.h"

namespace mlqr {

/// What a weight-code width fixes about the datapath: the activation
/// storage its dot kernel reads, the logit (and bias) type, the widest
/// accumulator that type holds, the activation bias the kernel's operand
/// convention needs, and the widest layer the kernel sums exactly.
template <typename Code>
struct QuantizedCodeTraits;

template <>
struct QuantizedCodeTraits<std::int16_t> {
  using Act = std::int16_t;
  using Logit = std::int64_t;
  static constexpr int kMaxAccumBits = 63;
  static constexpr std::int32_t kActBias = 0;
  /// The int16 kernels (Kernels::dot_i16 / lane_dot_i16) accumulate
  /// in int64: no width bound.
  static constexpr std::size_t kMaxLayerWidth =
      std::numeric_limits<std::size_t>::max();
};

template <>
struct QuantizedCodeTraits<std::int8_t> {
  using Act = std::uint8_t;    ///< Activation code + kActBias.
  using Logit = std::int32_t;  ///< accum_bits <= 31 fits every logit and bias.
  static constexpr int kMaxAccumBits = 31;
  static constexpr std::int32_t kActBias = 128;
  /// Kernels::dot_u8i8's int32 sum is exact while n * 255 * 128 < 2^31.
  static constexpr std::size_t kMaxLayerWidth = std::size_t{1} << 15;
};

/// Quantized mirror of one DenseLayer (codes, not values).
template <typename Code>
struct QuantizedDenseLayerOf {
  std::size_t in = 0;
  std::size_t out = 0;
  FixedPointFormat weight_fmt;  ///< Grid of `w` codes.
  FixedPointFormat in_fmt;      ///< Grid of the incoming activation codes.
  std::vector<Code> w;          ///< out x in, row-major codes.
  /// Bias at in_fmt.frac + weight_fmt.frac.
  std::vector<typename QuantizedCodeTraits<Code>::Logit> b;
  /// Per output row: -kActBias * sum_i w[j][i], the exact correction for
  /// the activation bias (all zero at int16). Derived from `w` on build and
  /// load, never serialized.
  std::vector<std::int32_t> corr;

  std::size_t parameter_count() const { return w.size() + b.size(); }
};

/// Integer-only inference twin of a trained float Mlp at one code width.
template <typename Code>
class QuantizedMlpOf {
 public:
  using Traits = QuantizedCodeTraits<Code>;
  using Layer = QuantizedDenseLayerOf<Code>;
  using Act = typename Traits::Act;
  using Logit = typename Traits::Logit;
  /// Widest weight / activation code the storage holds.
  static constexpr int kCodeBits = 8 * static_cast<int>(sizeof(Code));

  QuantizedMlpOf() = default;

  /// Quantizes `mlp`. `calib_features` is a row-major (n x input_size)
  /// matrix of float-path inputs driving the activation-range calibration;
  /// `input_fmt` is the code grid the caller feeds the first layer with
  /// (the front-end's feature format). Requires cfg.weight_bits and
  /// cfg.activation_bits in [2, kCodeBits] and cfg.accum_bits in
  /// [8, Traits::kMaxAccumBits]; throws when cfg.accum_bits cannot hold
  /// the calibrated ranges at any non-negative weight fraction.
  static QuantizedMlpOf quantize(const Mlp& mlp,
                                 std::span<const float> calib_features,
                                 const FixedPointFormat& input_fmt,
                                 const QuantizationConfig& cfg);

  std::size_t input_size() const;
  std::size_t output_size() const;
  std::size_t num_layers() const { return layers_.size(); }
  std::size_t parameter_count() const;
  const std::vector<Layer>& layers() const { return layers_; }

  /// Integer forward pass: `x` holds input codes on the first layer's
  /// in_fmt grid; logits land in `logits` as accumulator codes (fraction =
  /// logit_frac_bits()). `act_a`/`act_b` are the ping-pong activation
  /// buffers in the width's storage (Traits::Act, the operand its SIMD dot
  /// kernel reads directly); all three reuse capacity call-to-call.
  void logits_into(std::span<const std::int32_t> x, std::vector<Logit>& logits,
                   std::vector<Act>& act_a, std::vector<Act>& act_b) const;

  /// argmax over the integer logits (ties break to the lower index, same
  /// rule as the float path).
  int predict(std::span<const std::int32_t> x, std::vector<Logit>& logits,
              std::vector<Act>& act_a, std::vector<Act>& act_b) const;

  /// Batched argmax classify over `batch` feature rows (row-major int32
  /// codes, batch x input_size()): shots are processed in shot-lane
  /// blocks — activations transposed to [dim][shot] so the inner loop
  /// runs contiguously across shots with a broadcast weight, giving full
  /// SIMD lanes even on the narrow hidden layers where per-shot dots are
  /// all tail. Integer arithmetic is exact, so reordering is free: labels
  /// (written to labels[s * label_stride]) are bit-identical to predict
  /// on every row. act_a/act_b/logits are scratch matrices reusing
  /// capacity call-to-call.
  void classify_batch_into(std::size_t batch, const std::int32_t* features,
                           std::vector<Act>& act_a, std::vector<Act>& act_b,
                           std::vector<Logit>& logits, int* labels,
                           std::size_t label_stride) const;

  /// Fraction bits of the emitted logit codes.
  int logit_frac_bits() const;
  /// Real value of one logit step (2^-logit_frac_bits()).
  double logit_resolution() const;

  const QuantizationConfig& config() const { return cfg_; }

  /// Binary little-endian persistence (calibration snapshot leaf): the
  /// config, every layer's formats and the exact integer codes round-trip,
  /// so a reloaded head's integer forward pass is bit-identical. `corr` is
  /// recomputed on load.
  void save(std::ostream& os) const;
  static QuantizedMlpOf load(std::istream& is);

 private:
  QuantizationConfig cfg_;
  std::vector<Layer> layers_;
};

extern template class QuantizedMlpOf<std::int16_t>;
extern template class QuantizedMlpOf<std::int8_t>;

using QuantizedDenseLayer = QuantizedDenseLayerOf<std::int16_t>;
using QuantizedMlp = QuantizedMlpOf<std::int16_t>;

}  // namespace mlqr
