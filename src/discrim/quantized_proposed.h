// Integer fixed-point twin of the proposed discriminator — the actual
// FPGA datapath end-to-end: fused int16 demod+matched-filter front-end
// (QuantizedFrontend) feeding one integer per-qubit head (QuantizedMlpOf)
// each. Exposes the same classify_into(trace, scratch, out) contract as
// the float designs, so make_backend plugs it straight into
// ReadoutEngine::process_batch; per-shot inference is pure, so labels are
// bit-identical across batch sizes, thread counts, shards and SIMD tiers.
//
// One class over the heads' code width:
//   QuantizedProposedDiscriminator  — int16 heads, `OURS-INT<W>`, snapshot
//                                     kind 1;
//   Quantized8ProposedDiscriminator — int8 heads on the u8 x s8 kernels
//                                     of common/simd.h, `OURS-INT8`,
//                                     snapshot kind 5: the W=8 point of the
//                                     paper's quantization ablation (Fig 6)
//                                     as a serving datapath.
// The front-end is the same at both widths: its kernel and trace grids are
// calibrated independently of the head width.
//
// Built by *calibrated* quantization of a trained float
// ProposedDiscriminator: fixed-point formats for the trace, features,
// kernels, weights and activations are fitted from training data
// (fit_format / saturating_format), not assumed. Of these widths the
// resource model reads only the weight width, via design_spec().
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/fixed_point.h"
#include "discrim/inference_scratch.h"
#include "discrim/proposed.h"
#include "discrim/shot_set.h"
#include "dsp/quantized_frontend.h"
#include "fpga/resource_model.h"
#include "nn/quantized_mlp.h"

namespace mlqr {

/// Trained-then-quantized instance of the proposed design with heads of
/// code type `Code` (std::int16_t or std::int8_t).
template <typename Code>
class QuantizedProposedOf {
 public:
  using Head = QuantizedMlpOf<Code>;

  /// The widths quantize() uses by default: 16-bit codes and a 32-bit
  /// accumulator at int16; 8-bit weight and activation codes and a 24-bit
  /// accumulator at int8 (the Fig 6 ablation's W=8 grid, sized so int32
  /// holds every logit).
  static QuantizationConfig default_config();

  /// Quantizes a trained float discriminator. `calib`/`calib_idx` supply
  /// the range-calibration shots (use the training split; capped at
  /// kMaxCalibrationShots). cfg must fit the head width (see
  /// QuantizedMlpOf::quantize).
  static QuantizedProposedOf quantize(
      const ProposedDiscriminator& d, const ShotSet& calib,
      std::span<const std::size_t> calib_idx,
      const QuantizationConfig& cfg = default_config());

  /// Allocation-free integer path: raw trace -> fused int front-end ->
  /// integer heads, entirely inside `scratch`'s reused buffers. `out` must
  /// hold num_qubits() entries. Thread-safe for distinct scratches.
  void classify_into(const IqTrace& trace, InferenceScratch& scratch,
                     std::span<int> out) const;

  /// Batched classify over shots [lo, hi): feature codes gathered into a
  /// row-major tile, each integer head swept weight-row-outer over the
  /// whole tile (QuantizedMlpOf::classify_batch_into), labels scattered
  /// back through `labels_at(s)`. Integer arithmetic is exact, so labels
  /// are bit-identical to classify_into. Thread-safe for distinct
  /// scratches.
  void classify_batch_into(std::size_t lo, std::size_t hi,
                           const ShotFrameAt& frame_at,
                           InferenceScratch& scratch,
                           const ShotLabelsAt& labels_at) const;

  /// `OURS-INT<weight_bits>` at int16; always `OURS-INT8` at int8. The
  /// snapshot header records it, so it is part of the on-disk format.
  std::string name() const;

  std::size_t num_qubits() const { return heads_.size(); }
  std::size_t samples_used() const { return frontend_.n_samples(); }
  std::size_t feature_dim() const { return frontend_.n_filters(); }
  const QuantizedFrontend& frontend() const { return frontend_; }
  const Head& head(std::size_t q) const { return heads_.at(q); }
  const QuantizationConfig& config() const { return cfg_; }

  /// DesignSpec of this exact instance: topology from the trained heads,
  /// and the configured weight width (cfg.weight_bits), the one precision
  /// input of the resource model, rather than an assumed deployment width.
  DesignSpec design_spec() const;

  /// Binary little-endian persistence of the complete integer datapath
  /// (config, fused front-end tables, per-qubit integer heads). A reloaded
  /// instance classifies bit-identically. Prefer pipeline/snapshot.h's
  /// save_backend / load_backend wrappers, which add the magic+version
  /// header.
  void save(std::ostream& os) const;
  static QuantizedProposedOf load(std::istream& is);

 private:
  QuantizationConfig cfg_;
  QuantizedFrontend frontend_;
  std::vector<Head> heads_;  ///< One integer head per qubit.
};

extern template class QuantizedProposedOf<std::int16_t>;
extern template class QuantizedProposedOf<std::int8_t>;

using QuantizedProposedDiscriminator = QuantizedProposedOf<std::int16_t>;
using Quantized8ProposedDiscriminator = QuantizedProposedOf<std::int8_t>;

}  // namespace mlqr
