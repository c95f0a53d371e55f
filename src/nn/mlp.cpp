#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/error.h"
#include "common/serialize.h"
#include "common/simd.h"
#include "linalg/gemm.h"
#include "nn/dense_stack.h"

namespace mlqr {

Mlp::Mlp(std::vector<std::size_t> layer_sizes) {
  MLQR_CHECK_MSG(layer_sizes.size() >= 2, "MLP needs at least input+output");
  for (std::size_t s : layer_sizes) MLQR_CHECK(s > 0);
  layers_.reserve(layer_sizes.size() - 1);
  for (std::size_t l = 0; l + 1 < layer_sizes.size(); ++l) {
    DenseLayer layer;
    layer.in = layer_sizes[l];
    layer.out = layer_sizes[l + 1];
    layer.w.assign(layer.in * layer.out, 0.0f);
    layer.b.assign(layer.out, 0.0f);
    layers_.push_back(std::move(layer));
  }
}

void Mlp::init_weights(Rng& rng) {
  for (DenseLayer& layer : layers_) {
    const double stddev = std::sqrt(2.0 / static_cast<double>(layer.in));
    for (float& w : layer.w)
      w = static_cast<float>(rng.normal(0.0, stddev));
    std::fill(layer.b.begin(), layer.b.end(), 0.0f);
  }
}

std::size_t Mlp::input_size() const { return stack_input_size(layers_); }

std::size_t Mlp::output_size() const { return stack_output_size(layers_); }

std::size_t Mlp::parameter_count() const {
  return stack_parameter_count(layers_);
}

void Mlp::logits_into(std::span<const float> x, std::vector<float>& out,
                      std::vector<float>& scratch) const {
  MLQR_CHECK_MSG(x.size() == input_size(),
                 "MLP input size " << x.size() << " != " << input_size());
  // Ping-pong between the two buffers; whichever holds the final
  // activations is swapped into `out`, so no copy and no allocation once
  // both buffers have grown to the widest layer.
  scratch.assign(x.begin(), x.end());
  std::vector<float>* cur = &scratch;
  std::vector<float>* next = &out;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const DenseLayer& layer = layers_[l];
    next->assign(layer.out, 0.0f);
    sgemv(layer.out, layer.in, layer.w.data(), cur->data(), layer.b.data(),
          next->data());
    // ReLU as z > 0 ? z : +0, the batched lane kernel's rule: NaN maps to
    // +0 on both paths. A finite sum's sign of zero cannot move the next
    // layer's dots, whose partial sums start at +0 and so never become -0.
    if (l + 1 < layers_.size())
      for (float& v : *next) v = v > 0.0f ? v : 0.0f;
    std::swap(cur, next);
  }
  if (cur != &out) std::swap(out, scratch);
}

int Mlp::predict_reusing(std::span<const float> x, std::vector<float>& out,
                         std::vector<float>& scratch) const {
  logits_into(x, out, scratch);
  return argmax_tie_low(std::span<const float>(out));
}

int Mlp::predict_scored_reusing(std::span<const float> x,
                                std::vector<float>& out,
                                std::vector<float>& scratch,
                                float& p_max) const {
  logits_into(x, out, scratch);
  const int label = argmax_tie_low(std::span<const float>(out));
  // Stable softmax anchored at the winning logit: p_max = 1 / sum_c
  // exp(z_c - z_max). The winner contributes exp(0) = 1, so the result is
  // always in (0, 1] and never under/overflows.
  const float z_max = out[static_cast<std::size_t>(label)];
  float total = 0.0f;
  for (const float z : out) total += std::exp(z - z_max);
  p_max = 1.0f / total;
  return label;
}

void Mlp::classify_batch_into(std::size_t batch, const float* features,
                              std::vector<float>& act_a,
                              std::vector<float>& act_b, int* labels,
                              std::size_t label_stride) const {
  if (batch == 0) return;
  const std::size_t in_dim = input_size();
  const std::size_t out_dim = output_size();

  // Shot-lane schedule, as the integer heads run it: within a block of up
  // to kShotBlock shots, activations live transposed ([dim][shot]), so the
  // lane kernel broadcasts each weight and runs contiguously across shots
  // with every lane full however narrow the layer. Each lane sums in
  // sgemv's order, so the logits are logits_into's bit for bit.
  constexpr std::size_t kShotBlock = simd::kLaneShots;

  std::size_t max_dim = in_dim;
  for (const DenseLayer& layer : layers_)
    max_dim = std::max(max_dim, layer.out);
  act_a.resize(max_dim * kShotBlock);
  act_b.resize(max_dim * kShotBlock);
  const simd::Kernels& k = simd::kernels();

  for (std::size_t s0 = 0; s0 < batch; s0 += kShotBlock) {
    const std::size_t nb = std::min(kShotBlock, batch - s0);
    for (std::size_t s = 0; s < nb; ++s) {
      const float* row = features + (s0 + s) * in_dim;
      for (std::size_t i = 0; i < in_dim; ++i)
        act_a[i * kShotBlock + s] = row[i];
    }
    std::vector<float>* cur = &act_a;
    std::vector<float>* next = &act_b;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const DenseLayer& layer = layers_[l];
      const bool hidden = l + 1 < layers_.size();
      for (std::size_t j = 0; j < layer.out; ++j)
        k.lane_dot_f32(layer.w.data() + j * layer.in, layer.in, layer.b[j],
                       cur->data(), nb, hidden,
                       next->data() + j * kShotBlock);
      std::swap(cur, next);
    }
    argmax_lanes_tie_low(cur->data(), out_dim, kShotBlock, nb,
                         labels + s0 * label_stride, label_stride);
  }
}

void Mlp::save(std::ostream& os) const {
  // Explicit little-endian layout (common/serialize.h): layer count, then
  // per layer the dims and the exact f32 bit patterns of weights/biases —
  // a reloaded network is bit-identical on every host.
  io::write_u64(os, layers_.size());
  for (const DenseLayer& l : layers_) {
    io::write_u64(os, l.in);
    io::write_u64(os, l.out);
    io::write_vec_f32(os, l.w);
    io::write_vec_f32(os, l.b);
  }
  MLQR_CHECK_MSG(os.good(), "MLP serialization failed");
}

Mlp Mlp::load(std::istream& is) {
  const std::size_t n_layers = io::read_count(is, 64);
  MLQR_CHECK_MSG(n_layers > 0, "corrupt MLP stream: zero layers");
  Mlp mlp;
  mlp.layers_.resize(n_layers);
  std::size_t prev_out = 0;
  for (DenseLayer& l : mlp.layers_) {
    l.in = io::read_count(is);
    l.out = io::read_count(is);
    l.w = io::read_vec_f32(is);
    l.b = io::read_vec_f32(is);
    check_layer_chain(l, prev_out, "MLP");
    prev_out = l.out;
  }
  return mlp;
}

}  // namespace mlqr
