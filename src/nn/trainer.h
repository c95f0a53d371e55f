// Minibatch softmax-cross-entropy trainer with AdamW.
//
// Supports per-class loss weights, which is how the per-qubit heads of the
// proposed design stay calibrated on the rare |2> level (mined natural
// leakage is ~0.5-3% of traces). Joint-output designs (FNN/HERQULES) cannot
// be class-balanced this way because most of their 3^n classes have no
// training data at all — a key scalability failure mode the paper reports.
//
// Gradient accumulation is data-parallel on the process-wide thread pool:
// each minibatch is cut into fixed kGradShardRows-row gradient shards, each
// shard writes one flat gradient vector in layer order [w0, b0, w1, b1,
// ...], the shard gradients are reduced in shard order, and one AdamW step
// over two flat moment vectors of the same layout applies the total. The
// moments live and die with one train_classifier call: every retrain
// starts the optimizer cold. Because the shard partition depends only on the
// minibatch size, training is bit-identical across thread counts
// (MLQR_THREADS or TrainerConfig::threads) — the retrain half of the
// closed recalibration loop stays reproducible no matter where it runs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/mlp.h"

namespace mlqr {

/// Minibatches are 64 rows, Adam runs at beta 0.9 / 0.999 and eps 1e-8,
/// and the validation split selects the best epoch by class-balanced
/// (macro) accuracy — plain accuracy would reward ignoring a class that is
/// ~1% of the data (the mined |2> level).
struct TrainerConfig {
  int epochs = 20;
  float learning_rate = 1e-3f;
  float weight_decay = 0.0f;
  std::uint64_t seed = 1234;
  /// Per-class loss weights (empty = uniform). Size must match the model's
  /// output dimension when provided.
  std::vector<float> class_weights;
  /// Fraction of the training set held out for validation-based model
  /// selection (best-epoch weights restored). 0 disables.
  float validation_fraction = 0.15f;
  /// Worker budget for gradient shards and epoch evaluation. 0 uses
  /// parallel_thread_count() (the MLQR_THREADS resolution); any value
  /// yields bit-identical training, so this is a throughput knob only —
  /// e.g. a background retrain can leave cores to the serving path.
  std::size_t threads = 0;
};

struct TrainHistory {
  std::vector<double> train_loss;     ///< Mean weighted CE per epoch.
  std::vector<double> val_accuracy;   ///< Per epoch (empty if no val split).
  int best_epoch = -1;
};

/// Trains the model in place on row-major `features` (n x input) with
/// integer `labels` in [0, output_size). Returns the loss/accuracy history.
TrainHistory train_classifier(Mlp& model, std::span<const float> features,
                              std::span<const int> labels,
                              const TrainerConfig& cfg);

/// Macro-averaged per-class recall (classes absent from `labels` are
/// skipped). Evaluated data-parallel on the thread pool; the per-slot hit
/// counts are integers, so the result is identical for every `threads`
/// value (0 = parallel_thread_count()).
double evaluate_balanced_accuracy(const Mlp& model,
                                  std::span<const float> features,
                                  std::span<const int> labels,
                                  std::size_t threads = 0);

/// Convenience: inverse-frequency class weights (missing classes get 0).
std::vector<float> inverse_frequency_weights(std::span<const int> labels,
                                             std::size_t n_classes);

}  // namespace mlqr
