#include "discrim/quantized_proposed.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <type_traits>

#include "common/error.h"
#include "common/serialize.h"
#include "nn/normalizer.h"

namespace mlqr {

namespace {

constexpr std::size_t kBatchTile = 128;

/// The per-shot head buffers InferenceScratch keeps for each code width:
/// (logits, act_a, act_b).
template <typename Code>
auto head_buffers(InferenceScratch& s) {
  if constexpr (std::is_same_v<Code, std::int16_t>)
    return std::tie(s.int_logits, s.int_act_a, s.int_act_b);
  else
    return std::tie(s.i32_logits, s.u8_act_a, s.u8_act_b);
}

/// Same for the batched tile buffers: (act_a, act_b, logits).
template <typename Code>
auto batch_head_buffers(InferenceScratch& s) {
  if constexpr (std::is_same_v<Code, std::int16_t>)
    return std::tie(s.batch_i16_act_a, s.batch_i16_act_b, s.batch_i64_logits);
  else
    return std::tie(s.batch_u8_act_a, s.batch_u8_act_b, s.batch_i32_logits);
}

}  // namespace

template <typename Code>
QuantizationConfig QuantizedProposedOf<Code>::default_config() {
  QuantizationConfig cfg;
  if constexpr (std::is_same_v<Code, std::int8_t>) {
    cfg.weight_bits = 8;
    cfg.activation_bits = 8;
    cfg.accum_bits = 24;
  }
  return cfg;
}

template <typename Code>
QuantizedProposedOf<Code> QuantizedProposedOf<Code>::quantize(
    const ProposedDiscriminator& d, const ShotSet& calib,
    std::span<const std::size_t> calib_idx, const QuantizationConfig& cfg) {
  MLQR_CHECK(d.num_qubits() > 0);
  MLQR_CHECK(!calib_idx.empty());
  const std::size_t n_use = std::min(calib_idx.size(), kMaxCalibrationShots);
  const std::size_t feat_dim = d.feature_dim();
  const std::size_t n_samples = d.samples_used();

  // Range calibration in one sweep: the ADC-side |I|/|Q| bound that sets
  // the trace code grid, and the float path's normalized features that set
  // the NN input grid and the heads' activation ranges. The subsample
  // strides across calib_idx rather than taking a prefix: dataset splits
  // are grouped by prepared basis state, and a prefix would calibrate
  // ranges almost exclusively on ground-state shots.
  const std::size_t stride = calib_idx.size() / n_use;
  double trace_bound = 0.0;
  std::vector<float> feats(n_use * feat_dim, 0.0f);
  InferenceScratch scratch;
  for (std::size_t k = 0; k < n_use; ++k) {
    const IqTrace& tr = calib.traces.at(calib_idx[k * stride]);
    const std::size_t n = std::min(tr.size(), n_samples);
    for (std::size_t t = 0; t < n; ++t) {
      trace_bound = std::max(trace_bound, std::abs(static_cast<double>(tr.i[t])));
      trace_bound = std::max(trace_bound, std::abs(static_cast<double>(tr.q[t])));
    }
    d.features_into(tr, scratch);
    MLQR_CHECK(scratch.features.size() == feat_dim);
    std::copy(scratch.features.begin(), scratch.features.end(),
              feats.begin() + k * feat_dim);
  }
  trace_bound = std::max(trace_bound, 1e-6);

  // Feature grid: observed range with 25% headroom, never past the
  // normalizer's winsorization bound (fresh-data tails saturate there on
  // both paths).
  double feat_bound = 0.0;
  for (float f : feats)
    feat_bound = std::max(feat_bound, std::abs(static_cast<double>(f)));
  feat_bound = std::clamp(1.25 * feat_bound, 1.0,
                          static_cast<double>(kMaxAbsFeatureZ));
  const FixedPointFormat feature_fmt =
      saturating_format(-feat_bound, feat_bound, cfg.activation_bits);

  QuantizedProposedOf q;
  q.cfg_ = cfg;
  q.frontend_ =
      QuantizedFrontend::build(d.demodulator(), d.mf_bank(), d.normalizer(),
                               n_samples, trace_bound, feature_fmt, cfg);
  q.heads_.reserve(d.num_qubits());
  for (std::size_t qubit = 0; qubit < d.num_qubits(); ++qubit)
    q.heads_.push_back(
        Head::quantize(d.qubit_model(qubit), feats, feature_fmt, cfg));
  return q;
}

template <typename Code>
void QuantizedProposedOf<Code>::classify_into(const IqTrace& trace,
                                              InferenceScratch& scratch,
                                              std::span<int> out) const {
  MLQR_CHECK(out.size() == heads_.size());
  frontend_.features_into(trace, scratch);
  auto [logits, act_a, act_b] = head_buffers<Code>(scratch);
  for (std::size_t q = 0; q < heads_.size(); ++q)
    out[q] = heads_[q].predict(scratch.int_features, logits, act_a, act_b);
}

template <typename Code>
void QuantizedProposedOf<Code>::classify_batch_into(
    std::size_t lo, std::size_t hi, const ShotFrameAt& frame_at,
    InferenceScratch& scratch, const ShotLabelsAt& labels_at) const {
  const std::size_t n_qubits = heads_.size();
  const std::size_t feat_dim = frontend_.n_filters();
  auto [act_a, act_b, logits] = batch_head_buffers<Code>(scratch);
  for (std::size_t base = lo; base < hi; base += kBatchTile) {
    const std::size_t tile = std::min(kBatchTile, hi - base);
    scratch.batch_int_features.resize(tile * feat_dim);
    const IqTrace* frames[kBatchTile];
    for (std::size_t s = 0; s < tile; ++s) frames[s] = &frame_at(base + s);
    frontend_.features_block_into(tile, frames, scratch,
                                  scratch.batch_int_features.data(), feat_dim);
    scratch.batch_labels.resize(tile * n_qubits);
    for (std::size_t q = 0; q < n_qubits; ++q)
      heads_[q].classify_batch_into(tile, scratch.batch_int_features.data(),
                                    act_a, act_b, logits,
                                    scratch.batch_labels.data() + q, n_qubits);
    for (std::size_t s = 0; s < tile; ++s) {
      const std::span<int> out = labels_at(base + s);
      MLQR_CHECK(out.size() == n_qubits);
      std::copy_n(scratch.batch_labels.data() + s * n_qubits, n_qubits,
                  out.begin());
    }
  }
}

template <typename Code>
std::string QuantizedProposedOf<Code>::name() const {
  if constexpr (std::is_same_v<Code, std::int8_t>)
    return "OURS-INT8";
  else
    return "OURS-INT" + std::to_string(cfg_.weight_bits);
}

template <typename Code>
void QuantizedProposedOf<Code>::save(std::ostream& os) const {
  MLQR_CHECK_MSG(!heads_.empty(), "cannot save an uncalibrated discriminator");
  save_quantization_config(os, cfg_);
  frontend_.save(os);
  io::write_u64(os, heads_.size());
  for (const Head& h : heads_) h.save(os);
}

template <typename Code>
QuantizedProposedOf<Code> QuantizedProposedOf<Code>::load(std::istream& is) {
  QuantizedProposedOf q;
  q.cfg_ = load_quantization_config(is);
  q.frontend_ = QuantizedFrontend::load(is);
  const std::size_t n_heads = io::read_count(is, 4096);
  q.heads_.reserve(n_heads);
  for (std::size_t h = 0; h < n_heads; ++h)
    q.heads_.push_back(Head::load(is));

  MLQR_CHECK_MSG(n_heads == q.frontend_.num_qubits(),
                 "snapshot has " << n_heads << " integer heads for "
                                 << q.frontend_.num_qubits() << " qubits");
  for (const Head& h : q.heads_) {
    MLQR_CHECK_MSG(h.input_size() == q.frontend_.n_filters(),
                   "snapshot integer head reads " << h.input_size()
                       << " features, front-end emits "
                       << q.frontend_.n_filters());
    MLQR_CHECK_MSG(h.output_size() == static_cast<std::size_t>(kNumLevels),
                   "snapshot integer head emits " << h.output_size()
                                                  << " levels");
    // The front-end writes feature codes on feature_format(); the first
    // layer must consume exactly that grid or the requant chain shifts by
    // the wrong amount — a silent misclassification, so check it hard.
    const FixedPointFormat& in = h.layers().front().in_fmt;
    MLQR_CHECK_MSG(in.total_bits == q.frontend_.feature_format().total_bits &&
                       in.frac_bits == q.frontend_.feature_format().frac_bits,
                   "snapshot head input grid <" << in.total_bits << ','
                       << in.frac_bits << "> != front-end feature grid <"
                       << q.frontend_.feature_format().total_bits << ','
                       << q.frontend_.feature_format().frac_bits << '>');
  }
  return q;
}

template <typename Code>
DesignSpec QuantizedProposedOf<Code>::design_spec() const {
  DesignSpec spec;
  spec.name = name();
  spec.demod_channels = num_qubits();
  spec.matched_filters = frontend_.n_filters();
  spec.mf_kernel_len = frontend_.n_samples();
  for (const Head& head : heads_) {
    std::vector<std::size_t> sizes;
    sizes.push_back(head.input_size());
    for (const typename Head::Layer& l : head.layers()) sizes.push_back(l.out);
    spec.nns.push_back(std::move(sizes));
  }
  spec.hls.weight_bits = cfg_.weight_bits;
  return spec;
}

template class QuantizedProposedOf<std::int16_t>;
template class QuantizedProposedOf<std::int8_t>;

}  // namespace mlqr
