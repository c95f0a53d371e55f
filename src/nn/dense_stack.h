// Building blocks shared by the float (nn/mlp.h) and integer
// (nn/quantized_mlp.h) dense networks.
//
// Both MLPs are stacks of layers carrying `in`/`out` dims plus weight and
// bias payloads; only the arithmetic differs. The dimension bookkeeping —
// stack sizes, parameter totals, the load-time chain validation that keeps
// a corrupt snapshot from half-building a network, and the tie-to-lowest
// argmax rule both forward passes share — lives here once, parameterized on
// the layer type, instead of twice with drifting error messages.
#pragma once

#include <concepts>
#include <cstddef>
#include <span>
#include <vector>

#include "common/error.h"

namespace mlqr {

/// A dense layer a stack helper can reason about: `in`/`out` dims plus
/// weight (`w`, out x in row-major) and bias (`b`, out) containers whose
/// sizes must match the dims.
template <typename L>
concept DenseLayerLike = requires(const L& l) {
  { l.in } -> std::convertible_to<std::size_t>;
  { l.out } -> std::convertible_to<std::size_t>;
  { l.w.size() } -> std::convertible_to<std::size_t>;
  { l.b.size() } -> std::convertible_to<std::size_t>;
  { l.parameter_count() } -> std::convertible_to<std::size_t>;
};

template <DenseLayerLike L>
std::size_t stack_input_size(const std::vector<L>& layers) {
  MLQR_CHECK(!layers.empty());
  return layers.front().in;
}

template <DenseLayerLike L>
std::size_t stack_output_size(const std::vector<L>& layers) {
  MLQR_CHECK(!layers.empty());
  return layers.back().out;
}

template <DenseLayerLike L>
std::size_t stack_parameter_count(const std::vector<L>& layers) {
  std::size_t n = 0;
  for (const L& l : layers) n += l.parameter_count();
  return n;
}

/// Load-path validation of one just-deserialized layer: nonzero dims, the
/// chain rule (layer l's input width equals layer l-1's output width), and
/// payload sizes matching the dims. `what` names the network kind in the
/// error ("MLP", "quantized MLP"). `prev_out` is 0 for the first layer and
/// the previous layer's `out` after; callers thread it through the loop.
template <DenseLayerLike L>
void check_layer_chain(const L& l, std::size_t prev_out, const char* what) {
  MLQR_CHECK_MSG(l.in > 0 && l.out > 0, "corrupt " << what << " layer header");
  MLQR_CHECK_MSG(prev_out == 0 || l.in == prev_out,
                 what << " layer chain mismatch: input "
                      << l.in << " after a layer with " << prev_out
                      << " outputs");
  MLQR_CHECK_MSG(l.w.size() == l.in * l.out && l.b.size() == l.out,
                 what << " layer payload does not match its dims");
}

/// argmax with ties broken to the lowest index — the classification rule
/// both forward passes implement (std::max_element's behaviour, and what
/// the FPGA comparator tree does). Factored so float and integer logits
/// provably share one rule; bit-identity of labels across paths depends on
/// it.
template <typename T>
int argmax_tie_low(std::span<const T> scores) {
  MLQR_CHECK(!scores.empty());
  std::size_t best = 0;
  for (std::size_t j = 1; j < scores.size(); ++j)
    if (scores[j] > scores[best]) best = j;
  return static_cast<int>(best);
}

/// argmax_tie_low down each shot column of a transposed logit block (class
/// j of shot s at logits[j * stride + s]), the batched heads' layout:
/// labels[s * label_stride] for s < nb.
template <typename T>
void argmax_lanes_tie_low(const T* logits, std::size_t classes,
                          std::size_t stride, std::size_t nb, int* labels,
                          std::size_t label_stride) {
  for (std::size_t s = 0; s < nb; ++s) {
    std::size_t best = 0;
    for (std::size_t j = 1; j < classes; ++j)
      if (logits[j * stride + s] > logits[best * stride + s]) best = j;
    labels[s * label_stride] = static_cast<int>(best);
  }
}

}  // namespace mlqr
