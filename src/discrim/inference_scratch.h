// Reusable per-worker scratch buffers for the allocation-free inference
// paths (the *_into methods on every discriminator).
//
// Classifying a shot needs baseband traces, feature vectors and MLP
// activations; allocating them per call would throttle the streaming
// engine. Each engine worker owns one InferenceScratch; after the first
// shot of a batch every buffer has grown to its steady-state size and the
// hot loop performs zero heap allocations.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/iq.h"

namespace mlqr {

/// Accessors the batched classify paths use to reach shot `s`'s input
/// frame and per-qubit label slots without knowing the caller's container
/// (micro-batch spans, streaming ring slots — anything indexable). Defined
/// here rather than in the pipeline layer because the discriminators'
/// classify_batch_into methods take them directly.
using ShotFrameAt = std::function<const IqTrace&(std::size_t)>;
using ShotLabelsAt = std::function<std::span<int>(std::size_t)>;

/// Scratch space shared by every discriminator's classify_into path. A
/// single instance may be reused across *different* discriminators (the
/// buffers are sized on demand) but never across concurrent threads.
struct InferenceScratch {
  /// Per-qubit demodulated channels (proposed design) or a single reused
  /// channel buffer (per-qubit sequential designs).
  std::vector<BasebandTrace> baseband;
  /// Merged / raw feature vector handed to the classifier head.
  std::vector<float> features;
  /// One qubit's matched-filter scores before merging.
  std::vector<float> qubit_features;
  /// MLP activation ping-pong buffers (see Mlp::logits_into).
  std::vector<float> logits;
  std::vector<float> activations;

  /// Integer-path buffers (QuantizedProposedOf, both head widths): the raw
  /// trace converted to fixed-point I/Q codes and the merged feature codes.
  /// Then each width's head buffers, in the operand types its SIMD dot
  /// kernel reads (QuantizedCodeTraits): int16 logits and activation
  /// ping-pong pair...
  std::vector<std::int16_t> int_trace_i;
  std::vector<std::int16_t> int_trace_q;
  std::vector<std::int32_t> int_features;
  std::vector<std::int64_t> int_logits;
  std::vector<std::int16_t> int_act_a;
  std::vector<std::int16_t> int_act_b;
  /// ...and the int8 heads' biased-uint8 activation pair and int32 logits.
  std::vector<std::uint8_t> u8_act_a;
  std::vector<std::uint8_t> u8_act_b;
  std::vector<std::int32_t> i32_logits;

  /// Batched-head buffers (classify_batch_into): a row-major tile matrix
  /// gathering per-shot feature vectors, then each datapath's transposed
  /// [dim][shot] activation blocks (simd::kLaneShots shots wide), so every
  /// head layer runs as one shot-lane kernel call per output row instead
  /// of one GEMV per shot. Labels are staged in batch_labels (tile x
  /// n_qubits) and then scattered to the caller's slots, which need not be
  /// contiguous.
  std::vector<float> batch_features;      ///< tile x feat_dim (float path).
  std::vector<float> batch_act_a;         ///< float lane-block ping-pong.
  std::vector<float> batch_act_b;
  std::vector<std::int32_t> batch_int_features;  ///< tile x feat_dim codes.
  std::vector<std::int16_t> batch_i16_act_a;     ///< int16 batch ping-pong.
  std::vector<std::int16_t> batch_i16_act_b;
  std::vector<std::int64_t> batch_i64_logits;    ///< int16-path logits.
  std::vector<std::uint8_t> batch_u8_act_a;      ///< int8 batch ping-pong.
  std::vector<std::uint8_t> batch_u8_act_b;
  std::vector<std::int32_t> batch_i32_logits;    ///< int8-path logits.
  std::vector<int> batch_labels;                 ///< tile x n_qubits stage.

  /// Blocked front-end staging (QuantizedFrontend::features_block_into):
  /// the quantized I/Q codes of one small shot block, kept L1-resident
  /// while the kernel code table streams across the block.
  std::vector<std::int16_t> block_trace_i;  ///< shot-block x n_samples.
  std::vector<std::int16_t> block_trace_q;
  /// The integer front-end's exact filter sums before their requant
  /// (QuantizedFrontend::features_into / features_block_into).
  std::vector<std::int64_t> feature_accs;  ///< shot-block x n_filters.
};

}  // namespace mlqr
