// Feed-forward multilayer perceptron (dense, ReLU hidden, linear logits).
//
// Small enough to hand to the FPGA resource estimator layer-by-layer, yet
// fast enough (via linalg/gemm.h) to train the 686 k-parameter FNN
// baseline. Weights are float; the integer datapath (nn/quantized_mlp.h) is
// calibrated from a trained instance.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/rng.h"

namespace mlqr {

/// One dense layer: y = W x + b with W stored row-major (out x in).
struct DenseLayer {
  std::size_t in = 0;
  std::size_t out = 0;
  std::vector<float> w;  ///< out x in, row-major.
  std::vector<float> b;  ///< out.

  std::size_t parameter_count() const { return w.size() + b.size(); }
};

/// MLP over float features. Hidden activations are ReLU; the final layer
/// emits raw logits (softmax lives in the loss / caller).
class Mlp {
 public:
  Mlp() = default;

  /// Builds layers from sizes, e.g. {45, 22, 11, 3}. Needs >= 2 entries.
  explicit Mlp(std::vector<std::size_t> layer_sizes);

  /// He-normal weight initialization (deterministic given rng state).
  void init_weights(Rng& rng);

  std::size_t input_size() const;
  std::size_t output_size() const;
  std::size_t num_layers() const { return layers_.size(); }
  std::size_t parameter_count() const;
  const std::vector<DenseLayer>& layers() const { return layers_; }
  std::vector<DenseLayer>& mutable_layers() { return layers_; }

  /// Logits for a single sample (x.size() == input_size()): the result
  /// lands in `out`; `scratch` holds the intermediate activations. Both
  /// reuse their capacity call-to-call — the streaming engine's per-worker
  /// scratch path.
  void logits_into(std::span<const float> x, std::vector<float>& out,
                   std::vector<float>& scratch) const;

  /// argmax of the logits (lowest index on ties), via logits_into.
  int predict_reusing(std::span<const float> x, std::vector<float>& out,
                      std::vector<float>& scratch) const;

  /// predict_reusing plus the softmax probability of the winning class
  /// (written to `p_max`, in (0, 1]). The label is bit-identical to
  /// predict_reusing — same logits, same tie-low argmax — so confidence
  /// monitoring never disagrees with the serving path about the label.
  int predict_scored_reusing(std::span<const float> x, std::vector<float>& out,
                             std::vector<float>& scratch, float& p_max) const;

  /// Batched argmax classify of `batch` feature rows (row-major, batch x
  /// input_size()) into labels[r * label_stride]. Blocks of up to
  /// simd::kLaneShots shots are staged transposed ([input][shot]) and run
  /// serially through one lane_dot_f32 call per layer output row, which
  /// fuses the bias and the hidden layers' ReLU. act_a/act_b are the
  /// transposed ping-pong blocks (max layer width x kLaneShots floats);
  /// they reuse their capacity call-to-call (the per-worker scratch path).
  /// Every lane sums in sgemv's order and applies logits_into's ReLU, so
  /// the logits equal logits_into's bit for bit (NaN payloads aside) and
  /// the labels predict_reusing's on every row, NaN inputs included.
  void classify_batch_into(std::size_t batch, const float* features,
                           std::vector<float>& act_a,
                           std::vector<float>& act_b, int* labels,
                           std::size_t label_stride) const;

  /// Binary little-endian serialization (layer dims + exact f32 weight bit
  /// patterns; calibration snapshot leaf). load throws mlqr::Error on a
  /// truncated stream or inconsistent layer chain.
  void save(std::ostream& os) const;
  static Mlp load(std::istream& is);

 private:
  std::vector<DenseLayer> layers_;
};

}  // namespace mlqr
