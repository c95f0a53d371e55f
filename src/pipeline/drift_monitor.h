// Per-shard drift monitor for the streaming engine (the signal model is
// on DriftConfig), as a pure value. Like RecalibrationPolicy it is a
// single-threaded value with no lock, no clock and no Rng
// (tools/lint_invariants.py enforces that): the engine feeds it under its
// mutex, tests feed it directly, and its state is a pure function of the
// observed shot sequence.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace mlqr {

/// Knobs for the per-shard drift monitors (StreamingEngine::drift()).
/// Monitoring is passive — it never alters routing, labels, or ticket
/// outcomes. Three signals are tracked per shard, each as a frozen
/// baseline (mean over the first baseline window) plus an EWMA:
///   * confidence — softmax p_max of the winning labels, re-scored on the
///     dispatcher thread every confidence_sample-th OK shot (only on
///     backends whose supports_scored() is true).
///   * fidelity — fraction of qubits matching the caller-supplied
///     expected labels on reference shots (SubmitOptions::expected:
///     interleaved calibration probes with known ground truth).
///   * label mix — per-level occupancy histogram of the served labels
///     (catches population drift even without scoring or references);
///     an L1 distance above 0.25 from its baseline flags drift.
struct DriftConfig {
  /// Master switch; when false no monitor state is ever touched.
  bool enabled = false;
  /// EWMA smoothing factor for the post-baseline trackers, in (0, 1].
  double alpha = 0.02;
  /// OK shots of label-mix baseline before that tracker goes live.
  std::size_t baseline_shots = 256;
  /// Scored / reference shots of baseline for confidence and fidelity.
  std::size_t baseline_signal = 16;
  /// Score every Nth OK shot per shard (1 = every shot). Scoring re-runs
  /// inference serially on the dispatcher thread, so keep it sparse when
  /// ingest is saturating the classifier.
  std::size_t confidence_sample = 16;
  /// Relative confidence drop vs baseline that flags drift.
  double confidence_drop = 0.05;
  /// Absolute reference-fidelity drop vs baseline that flags drift.
  double fidelity_drop = 0.02;
  /// Absolute reference-fidelity floor (0 disables the floor check).
  double min_fidelity = 0.0;
  /// Minimum OK shots on a shard before any signal may flag drift.
  std::size_t min_samples = 64;
};

/// One shard's drift-monitor snapshot (StreamingEngine::drift()). Signal
/// fields are zero until their baseline froze.
struct DriftReport {
  bool ready = false;    ///< A baseline froze and min_samples was reached.
  bool drifted = false;  ///< At least one signal crossed its threshold.
  std::uint64_t samples = 0;    ///< OK shots observed on this shard.
  std::uint64_t scored = 0;     ///< Shots with a sampled confidence.
  std::uint64_t reference = 0;  ///< Reference shots with expected labels.
  double confidence = 0.0;           ///< Confidence EWMA.
  double baseline_confidence = 0.0;  ///< Frozen confidence baseline.
  double fidelity = 0.0;             ///< Reference-fidelity EWMA.
  double baseline_fidelity = 0.0;    ///< Frozen fidelity baseline.
  double label_l1 = 0.0;  ///< L1(label-mix EWMA, baseline mix).
};

class DriftMonitor {
 public:
  /// Takes the learning knobs (alpha, baseline windows — clamped to valid
  /// ranges) from `cfg`; the thresholds are applied by report().
  explicit DriftMonitor(const DriftConfig& cfg = {});

  /// Folds one OK shot in: its served `labels`, the sampled softmax
  /// confidence (nullopt when this shot was not scored), and the
  /// reference shot's ground truth (empty for regular traffic; otherwise
  /// the same size as `labels`).
  void observe(std::span<const int> labels, std::optional<float> confidence,
               std::span<const int> expected);

  /// Evaluates the signals against `cfg`'s thresholds.
  DriftReport report(const DriftConfig& cfg) const;

 private:
  /// Label bins tracked by the mix monitor; labels clamp into the last
  /// bin, so any level count up to (and beyond) 3 is representable.
  static constexpr std::size_t kLabelBins = 4;

  /// Baseline-then-EWMA tracker for one scalar signal.
  struct SignalTrack {
    std::uint64_t count = 0;
    double baseline_sum = 0.0;
    double baseline = 0.0;  ///< Mean of the first baseline_n samples.
    double value = 0.0;     ///< EWMA, seeded from the frozen baseline.
    bool frozen = false;
    void update(double x, std::size_t baseline_n, double alpha);
  };

  double alpha_;
  std::size_t baseline_shots_;
  std::size_t baseline_signal_;
  std::uint64_t samples_ = 0;    ///< OK shots observed.
  std::uint64_t scored_ = 0;     ///< Shots with a sampled confidence.
  std::uint64_t reference_ = 0;  ///< Reference shots observed.
  SignalTrack confidence_;
  SignalTrack fidelity_;
  bool label_frozen_ = false;
  std::array<double, kLabelBins> label_base_sum_{};
  std::array<double, kLabelBins> label_base_{};
  std::array<double, kLabelBins> label_ewma_{};
};

}  // namespace mlqr
