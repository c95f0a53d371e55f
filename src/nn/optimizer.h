// AdamW optimizer state behind a checkpointable seam.
//
// The trainer used to bury its Adam moment buffers in a local struct, so
// every retrain restarted the optimizer cold. The recalibration loop wants
// warm starts: retrain the same head a few epochs from the previous
// calibration's weights *and* moments. AdamWOptimizer owns the per-layer
// moment vectors plus the step counter, applies one update per reduced
// minibatch gradient, and save/load round-trips losslessly so the state
// can ride along with a calibration snapshot.
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "nn/mlp.h"

namespace mlqr {

/// Per-layer gradient accumulators matching a model's parameter layout.
/// The data-parallel trainer keeps one per gradient shard and reduces them
/// in fixed shard order — that fixed order is what keeps training
/// bit-identical across thread counts.
struct GradientBuffers {
  std::vector<std::vector<float>> dw, db;

  /// Resizes to `model`'s layout (contents unspecified — every producer
  /// overwrites its buffers per minibatch).
  void match(const Mlp& model);

  /// Adds `other` element-wise (layouts must match).
  void add(const GradientBuffers& other);
};

/// Decoupled-weight-decay Adam (AdamW) with checkpointable state. A
/// warm-start retrain resumes exactly where the previous calibration pass
/// stopped — same moments, same bias-correction schedule — instead of
/// re-paying the Adam warmup on every recalibration.
class AdamWOptimizer {
 public:
  AdamWOptimizer() = default;
  explicit AdamWOptimizer(const Mlp& model) { reset(model); }

  /// (Re)allocates zeroed moments for `model` and rewinds the step count.
  void reset(const Mlp& model);

  bool initialized() const { return !mw_.empty(); }

  /// True when the moment layout matches `model`'s parameter layout.
  bool matches(const Mlp& model) const;

  long step_count() const { return step_; }

  /// Applies one AdamW update to `model` from `grads` (beta1 0.9, beta2
  /// 0.999 and eps 1e-8 are fixed). Advances the step counter first; bias
  /// correction uses the post-increment count, matching the long-standing
  /// trainer behaviour.
  void step(Mlp& model, const GradientBuffers& grads, float learning_rate,
            float weight_decay);

  /// Binary little-endian persistence (exact f32 bit patterns), so a
  /// reloaded optimizer continues bit-identically.
  void save(std::ostream& os) const;
  /// Throws mlqr::Error on a truncated or inconsistent stream.
  static AdamWOptimizer load(std::istream& is);

 private:
  long step_ = 0;
  std::vector<std::vector<float>> mw_, vw_, mb_, vb_;
};

}  // namespace mlqr
