#include "nn/quantized_mlp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "common/error.h"
#include "common/serialize.h"
#include "common/simd.h"
#include "nn/dense_stack.h"

namespace mlqr {

namespace {

/// Integer bits (excluding sign) needed to hold `bound`.
int int_bits_for(double bound) {
  int bits = 0;
  while (std::ldexp(1.0, bits) <= bound) ++bits;
  return bits;
}

/// Each width's SIMD kernels: the exact sum_i w[i] * a[i] over the stored
/// activation operands (biased at int8; the caller adds corr), per shot
/// (dot_codes) and across a transposed shot block (lane_dot_codes).
std::int64_t dot_codes(const simd::Kernels& k, const std::int16_t* w,
                       const std::int16_t* a, std::size_t n) {
  return k.dot_i16(w, a, n);
}
std::int64_t dot_codes(const simd::Kernels& k, const std::int8_t* w,
                       const std::uint8_t* a, std::size_t n) {
  return k.dot_u8i8(a, w, n);
}
void lane_dot_codes(const simd::Kernels& k, const std::int16_t* w,
                    std::size_t in, const std::int16_t* act, std::size_t nb,
                    std::size_t strip, std::int64_t* acc) {
  k.lane_dot_i16(w, in, act, nb, strip, acc);
}
void lane_dot_codes(const simd::Kernels& k, const std::int8_t* w,
                    std::size_t in, const std::uint8_t* act, std::size_t nb,
                    std::size_t strip, std::int64_t* acc) {
  k.lane_dot_u8i8(w, in, act, nb, strip, acc);
}
/// ...and the epilogue that requants those sums into the next layer's
/// activation operands, or into the logits on the last layer.
void requant_lanes(const simd::Kernels& k, const std::int64_t* acc,
                   std::size_t nb, std::int64_t init, int accum_bits,
                   int shift, int act_bits, std::int16_t* act,
                   std::int64_t* logit) {
  k.requant_lanes_i16(acc, nb, init, accum_bits, shift, act_bits, act, logit);
}
void requant_lanes(const simd::Kernels& k, const std::int64_t* acc,
                   std::size_t nb, std::int64_t init, int accum_bits,
                   int shift, int act_bits, std::uint8_t* act,
                   std::int32_t* logit) {
  k.requant_lanes_u8(acc, nb, init, accum_bits, shift, act_bits, act, logit);
}

/// Code and bias vectors travel at their storage width, so each width's
/// payload keeps the byte layout its snapshot kind has always had.
template <typename T>
void write_codes(std::ostream& os, const std::vector<T>& v) {
  if constexpr (std::is_same_v<T, std::int8_t>) {
    io::write_vec_i8(os, v);
  } else if constexpr (std::is_same_v<T, std::int16_t>) {
    io::write_vec_i16(os, v);
  } else if constexpr (std::is_same_v<T, std::int32_t>) {
    io::write_vec_i32(os, v);
  } else {
    static_assert(std::is_same_v<T, std::int64_t>);
    io::write_vec_i64(os, v);
  }
}

template <typename T>
std::vector<T> read_codes(std::istream& is) {
  if constexpr (std::is_same_v<T, std::int8_t>) {
    return io::read_vec_i8(is);
  } else if constexpr (std::is_same_v<T, std::int16_t>) {
    return io::read_vec_i16(is);
  } else if constexpr (std::is_same_v<T, std::int32_t>) {
    return io::read_vec_i32(is);
  } else {
    static_assert(std::is_same_v<T, std::int64_t>);
    return io::read_vec_i64(is);
  }
}

template <typename Code>
constexpr const char* kNetName =
    sizeof(Code) == 1 ? "int8 MLP" : "int16 MLP";

template <typename Code>
void check_config(const QuantizationConfig& cfg) {
  constexpr int kBits = QuantizedMlpOf<Code>::kCodeBits;
  constexpr int kMaxAccum = QuantizedCodeTraits<Code>::kMaxAccumBits;
  MLQR_CHECK_MSG(cfg.weight_bits >= 2 && cfg.weight_bits <= kBits,
                 kNetName<Code> << " needs weight_bits in [2, " << kBits
                                << "], got " << cfg.weight_bits);
  MLQR_CHECK_MSG(cfg.activation_bits >= 2 && cfg.activation_bits <= kBits,
                 kNetName<Code> << " needs activation_bits in [2, " << kBits
                                << "], got " << cfg.activation_bits);
  MLQR_CHECK_MSG(cfg.accum_bits >= 8 && cfg.accum_bits <= kMaxAccum,
                 kNetName<Code> << " needs accum_bits in [8, " << kMaxAccum
                                << "], got " << cfg.accum_bits);
}

/// The invariants the forward passes rely on, pinned where codes are
/// minted and again on every (untrusted) load, then the derived
/// bias-correction row:
///  - formats no wider than the code storage (the int32 -> Act staging is
///    value-preserving, and the batch path's strip bound cannot overflow);
///  - layer widths the width's dot kernel sums exactly;
///  - no weight code at the type minimum: fit_format over a symmetric range
///    keeps |code| <= 2^(W-1)-1, and the int16 dot kernel's madd pairs rely
///    on the weight operand never being -2^15.
template <typename Code>
void finish_layer(QuantizedDenseLayerOf<Code>& l) {
  using Traits = QuantizedCodeTraits<Code>;
  constexpr int kBits = QuantizedMlpOf<Code>::kCodeBits;
  MLQR_CHECK_MSG(l.in_fmt.total_bits <= kBits && l.weight_fmt.total_bits <= kBits,
                 kNetName<Code> << " layer grids <" << l.in_fmt.total_bits
                                << "-bit activations, "
                                << l.weight_fmt.total_bits
                                << "-bit weights> exceed the code width");
  MLQR_CHECK_MSG(l.in <= Traits::kMaxLayerWidth,
                 kNetName<Code> << " layer width " << l.in
                                << " exceeds the exact dot bound ("
                                << Traits::kMaxLayerWidth << ')');
  for (const Code w : l.w)
    MLQR_CHECK_MSG(w > std::numeric_limits<Code>::min(),
                   kNetName<Code> << " weight code " << static_cast<int>(w)
                                  << " is not representable");
  l.corr.assign(l.out, 0);
  for (std::size_t j = 0; j < l.out; ++j) {
    const Code* row = l.w.data() + j * l.in;
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < l.in; ++i) sum += row[i];
    l.corr[j] = static_cast<std::int32_t>(-Traits::kActBias * sum);
  }
}

}  // namespace

template <typename Code>
QuantizedMlpOf<Code> QuantizedMlpOf<Code>::quantize(
    const Mlp& mlp, std::span<const float> calib_features,
    const FixedPointFormat& input_fmt, const QuantizationConfig& cfg) {
  check_config<Code>(cfg);
  const std::vector<DenseLayer>& fl = mlp.layers();
  MLQR_CHECK(!fl.empty());
  const std::size_t in_dim = mlp.input_size();
  MLQR_CHECK(!calib_features.empty() && calib_features.size() % in_dim == 0);
  const std::size_t n_rows = calib_features.size() / in_dim;

  // Range calibration: float forward over the calibration rows, tracking
  // the largest |activation| entering each layer and the largest
  // |pre-activation| its accumulator must hold.
  std::vector<double> act_in_max(fl.size(), 0.0);
  std::vector<double> pre_max(fl.size(), 0.0);
  std::vector<double> cur, next;
  for (std::size_t r = 0; r < n_rows; ++r) {
    const float* row = calib_features.data() + r * in_dim;
    cur.assign(row, row + in_dim);
    for (std::size_t l = 0; l < fl.size(); ++l) {
      const DenseLayer& layer = fl[l];
      for (double v : cur)
        act_in_max[l] = std::max(act_in_max[l], std::abs(v));
      next.assign(layer.out, 0.0);
      for (std::size_t j = 0; j < layer.out; ++j) {
        double acc = static_cast<double>(layer.b[j]);
        const float* w = layer.w.data() + j * layer.in;
        for (std::size_t i = 0; i < layer.in; ++i)
          acc += static_cast<double>(w[i]) * cur[i];
        pre_max[l] = std::max(pre_max[l], std::abs(acc));
        next[j] = l + 1 < fl.size() ? std::max(acc, 0.0) : acc;
      }
      cur.swap(next);
    }
  }

  QuantizedMlpOf q;
  q.cfg_ = cfg;
  q.layers_.reserve(fl.size());
  for (std::size_t l = 0; l < fl.size(); ++l) {
    const DenseLayer& layer = fl[l];
    Layer ql;
    ql.in = layer.in;
    ql.out = layer.out;

    if (l == 0) {
      ql.in_fmt = input_fmt;
    } else {
      // 2x headroom over the calibrated range for fresh data; narrow widths
      // fall back to clipping rather than failing.
      const double bound = std::max(2.0 * act_in_max[l], 1.0);
      ql.in_fmt = saturating_format(-bound, bound, cfg.activation_bits);
    }

    double w_bound = 0.0;
    for (float w : layer.w)
      w_bound = std::max(w_bound, std::abs(static_cast<double>(w)));
    ql.weight_fmt = w_bound > 0.0
                        ? fit_format(-w_bound, w_bound, cfg.weight_bits)
                        : FixedPointFormat{cfg.weight_bits, cfg.weight_bits - 1};

    // The accumulator holds pre-activations at frac in+weight; narrow the
    // weight fraction until the calibrated range (2x headroom) provably
    // fits cfg.accum_bits, mirroring what an HLS accumulator-width report
    // would force at synthesis time.
    const int pre_bits = int_bits_for(std::max(2.0 * pre_max[l], 1.0));
    const int frac_budget = cfg.accum_bits - 1 - pre_bits;
    MLQR_CHECK_MSG(frac_budget >= ql.in_fmt.frac_bits,
                   "accum_bits=" << cfg.accum_bits
                                 << " too narrow for layer " << l
                                 << " (pre-activation range "
                                 << pre_max[l] << ")");
    ql.weight_fmt.frac_bits =
        std::min(ql.weight_fmt.frac_bits, frac_budget - ql.in_fmt.frac_bits);

    // weight_bits <= kCodeBits, so every minted code fits Code.
    ql.w.resize(layer.w.size());
    for (std::size_t i = 0; i < layer.w.size(); ++i)
      ql.w[i] = static_cast<Code>(
          to_code(static_cast<double>(layer.w[i]), ql.weight_fmt));
    // accum_bits <= kMaxAccumBits, so every saturated bias fits Logit.
    const int bias_frac = ql.in_fmt.frac_bits + ql.weight_fmt.frac_bits;
    ql.b.resize(layer.b.size());
    for (std::size_t i = 0; i < layer.b.size(); ++i)
      ql.b[i] = static_cast<Logit>(saturate_to_bits(
          static_cast<std::int64_t>(round_half_even(
              std::ldexp(static_cast<double>(layer.b[i]), bias_frac))),
          cfg.accum_bits));
    finish_layer(ql);
    q.layers_.push_back(std::move(ql));
  }
  return q;
}

template <typename Code>
void QuantizedMlpOf<Code>::save(std::ostream& os) const {
  save_quantization_config(os, cfg_);
  io::write_u64(os, layers_.size());
  for (const Layer& l : layers_) {
    io::write_u64(os, l.in);
    io::write_u64(os, l.out);
    save_format(os, l.weight_fmt);
    save_format(os, l.in_fmt);
    write_codes(os, l.w);
    write_codes(os, l.b);
  }
}

template <typename Code>
QuantizedMlpOf<Code> QuantizedMlpOf<Code>::load(std::istream& is) {
  QuantizedMlpOf q;
  q.cfg_ = load_quantization_config(is);
  check_config<Code>(q.cfg_);
  const std::size_t n_layers = io::read_count(is, 64);
  MLQR_CHECK_MSG(n_layers > 0, "corrupt " << kNetName<Code> << ": zero layers");
  q.layers_.resize(n_layers);
  std::size_t prev_out = 0;
  for (Layer& l : q.layers_) {
    l.in = io::read_count(is);
    l.out = io::read_count(is);
    l.weight_fmt = load_format(is);
    l.in_fmt = load_format(is);
    l.w = read_codes<Code>(is);
    l.b = read_codes<Logit>(is);
    check_layer_chain(l, prev_out, kNetName<Code>);
    finish_layer(l);
    prev_out = l.out;
  }
  return q;
}

template <typename Code>
std::size_t QuantizedMlpOf<Code>::input_size() const {
  return stack_input_size(layers_);
}

template <typename Code>
std::size_t QuantizedMlpOf<Code>::output_size() const {
  return stack_output_size(layers_);
}

template <typename Code>
std::size_t QuantizedMlpOf<Code>::parameter_count() const {
  return stack_parameter_count(layers_);
}

template <typename Code>
void QuantizedMlpOf<Code>::logits_into(std::span<const std::int32_t> x,
                                       std::vector<Logit>& logits,
                                       std::vector<Act>& act_a,
                                       std::vector<Act>& act_b) const {
  MLQR_CHECK_MSG(x.size() == input_size(),
                 "input size " << x.size() << " != " << input_size());
  // Input codes live on the first layer's in_fmt grid (at most kCodeBits
  // wide), so the staging into the kernel's operand type is
  // value-preserving.
  act_a.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    act_a[i] = static_cast<Act>(x[i] + Traits::kActBias);
  const simd::Kernels& k = simd::kernels();
  std::vector<Act>* cur = &act_a;
  std::vector<Act>* next = &act_b;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const bool last = l + 1 == layers_.size();
    const Act* in_codes = cur->data();
    if (last) {
      logits.resize(layer.out);
    } else {
      next->resize(layer.out);
    }
    const int shift =
        last ? 0
             : layer.in_fmt.frac_bits + layer.weight_fmt.frac_bits -
                   layers_[l + 1].in_fmt.frac_bits;
    for (std::size_t j = 0; j < layer.out; ++j) {
      // Exact accumulation: the SIMD dots are bit-identical to their scalar
      // loops, and the biased dot plus corr equals sum_i code_i * w_i by
      // linearity, so the saturate/shift requant chain below sees the same
      // accumulator on every tier.
      std::int64_t acc =
          static_cast<std::int64_t>(layer.b[j]) + layer.corr[j] +
          dot_codes(k, layer.w.data() + j * layer.in, in_codes, layer.in);
      acc = saturate_to_bits(acc, cfg_.accum_bits);
      if (last) {
        logits[j] = static_cast<Logit>(acc);
      } else {
        if (acc < 0) acc = 0;  // ReLU in the integer domain.
        const std::int64_t code = saturate_to_bits(
            shift_round_half_even(acc, shift), cfg_.activation_bits);
        (*next)[j] = static_cast<Act>(code + Traits::kActBias);
      }
    }
    std::swap(cur, next);
  }
}

template <typename Code>
int QuantizedMlpOf<Code>::predict(std::span<const std::int32_t> x,
                                  std::vector<Logit>& logits,
                                  std::vector<Act>& act_a,
                                  std::vector<Act>& act_b) const {
  logits_into(x, logits, act_a, act_b);
  return argmax_tie_low(std::span<const Logit>(logits));
}

template <typename Code>
void QuantizedMlpOf<Code>::classify_batch_into(
    std::size_t batch, const std::int32_t* features, std::vector<Act>& act_a,
    std::vector<Act>& act_b, std::vector<Logit>& logits, int* labels,
    std::size_t label_stride) const {
  if (batch == 0) return;
  const std::size_t in_dim = input_size();
  const std::size_t out_dim = output_size();

  // Shot-lane schedule: within a block of up to kShotBlock shots,
  // activations live transposed ([dim][shot]) so the innermost loop runs
  // contiguously across shots with the weight broadcast. The readout
  // heads are narrow (tens of inputs), so per-shot dot products spend
  // most of their time in vector tails and horizontal reductions; across
  // shots every lane is full regardless of layer width. Integer
  // arithmetic is exact, so the reordering is bit-identical to
  // logits_into by construction.
  constexpr std::size_t kShotBlock = simd::kLaneShots;

  std::size_t max_dim = in_dim;
  for (const Layer& layer : layers_) max_dim = std::max(max_dim, layer.out);
  act_a.resize(max_dim * kShotBlock);
  act_b.resize(max_dim * kShotBlock);
  logits.resize(out_dim * kShotBlock);
  const simd::Kernels& k = simd::kernels();

  for (std::size_t s0 = 0; s0 < batch; s0 += kShotBlock) {
    const std::size_t nb = std::min(kShotBlock, batch - s0);
    // Stage the block transposed, with the same value-preserving staging
    // as logits_into.
    for (std::size_t i = 0; i < in_dim; ++i)
      for (std::size_t s = 0; s < nb; ++s)
        act_a[i * kShotBlock + s] = static_cast<Act>(
            features[(s0 + s) * in_dim + i] + Traits::kActBias);
    std::vector<Act>* cur = &act_a;
    std::vector<Act>* next = &act_b;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const Layer& layer = layers_[l];
      const bool last = l + 1 == layers_.size();
      const int shift =
          last ? 0
               : layer.in_fmt.frac_bits + layer.weight_fmt.frac_bits -
                     layers_[l + 1].in_fmt.frac_bits;
      // The lane kernel's int32 accumulators stay exact for `strip`
      // consecutive inputs: |w| <= 2^(Tw-1) and |act| <= 2^(Ta-1) +
      // kActBias bound every product, and the strip flushes into int64
      // before the partial sum can reach 2^31. At int8 one strip covers
      // every admissible layer width; at full-range int16 grids (W = A =
      // 16) the strip is 1 and the kernel widens every madd pair.
      const std::int64_t max_prod =
          (std::int64_t{1} << (layer.weight_fmt.total_bits - 1)) *
          ((std::int64_t{1} << (layer.in_fmt.total_bits - 1)) +
           Traits::kActBias);
      const std::size_t strip = static_cast<std::size_t>(
          std::max<std::int64_t>(1, (std::int64_t{1} << 31) / max_prod - 1));
      // The epilogue kernel's shifts need |shift| < 63 (as
      // shift_round_half_even does).
      MLQR_CHECK_MSG(shift > -63 && shift < 63,
                     kNetName<Code> << " layer " << l << " requant shift "
                                    << shift << " is out of range");
      for (std::size_t j = 0; j < layer.out; ++j) {
        std::int64_t acc64[kShotBlock];
        lane_dot_codes(k, layer.w.data() + j * layer.in, layer.in,
                       cur->data(), nb, strip, acc64);
        // Epilogue: the exact per-(shot, output) chain of logits_into —
        // saturate, then on hidden layers ReLU, shift and saturate again.
        const std::int64_t init =
            static_cast<std::int64_t>(layer.b[j]) + layer.corr[j];
        requant_lanes(k, acc64, nb, init, cfg_.accum_bits, shift,
                      cfg_.activation_bits,
                      last ? nullptr : next->data() + j * kShotBlock,
                      last ? logits.data() + j * kShotBlock : nullptr);
      }
      std::swap(cur, next);
    }
    argmax_lanes_tie_low(logits.data(), out_dim, kShotBlock, nb,
                         labels + s0 * label_stride, label_stride);
  }
}

template <typename Code>
int QuantizedMlpOf<Code>::logit_frac_bits() const {
  MLQR_CHECK(!layers_.empty());
  const Layer& last = layers_.back();
  return last.in_fmt.frac_bits + last.weight_fmt.frac_bits;
}

template <typename Code>
double QuantizedMlpOf<Code>::logit_resolution() const {
  return std::ldexp(1.0, -logit_frac_bits());
}

template class QuantizedMlpOf<std::int16_t>;
template class QuantizedMlpOf<std::int8_t>;

}  // namespace mlqr
