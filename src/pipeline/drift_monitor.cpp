#include "pipeline/drift_monitor.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mlqr {

namespace {

/// L1 distance between the label-mix EWMA and its baseline that flags
/// drift (2.0 would mean totally disjoint distributions).
constexpr double kLabelL1Drift = 0.25;

}  // namespace

DriftMonitor::DriftMonitor(const DriftConfig& cfg)
    : alpha_(std::clamp(cfg.alpha, 1e-6, 1.0)),
      baseline_shots_(std::max<std::size_t>(cfg.baseline_shots, 1)),
      baseline_signal_(std::max<std::size_t>(cfg.baseline_signal, 1)) {}

void DriftMonitor::SignalTrack::update(double x, std::size_t baseline_n,
                                       double alpha) {
  ++count;
  if (!frozen) {
    // Baseline phase: plain mean over the first baseline_n samples, then
    // freeze and seed the EWMA from it so the first post-baseline report
    // starts exactly at "no drift".
    baseline_sum += x;
    if (count >= baseline_n) {
      baseline = baseline_sum / static_cast<double>(count);
      value = baseline;
      frozen = true;
    }
  } else {
    value = (1.0 - alpha) * value + alpha * x;
  }
}

void DriftMonitor::observe(std::span<const int> labels,
                           std::optional<float> confidence,
                           std::span<const int> expected) {
  MLQR_CHECK_MSG(!labels.empty() &&
                     (expected.empty() || expected.size() == labels.size()),
                 "drift monitor got " << labels.size() << " labels and "
                                      << expected.size() << " expected");
  ++samples_;

  // Label mix: this shot's per-level occupancy, averaged over qubits so
  // every shot contributes unit mass regardless of register width.
  std::array<double, kLabelBins> frac{};
  const double w = 1.0 / static_cast<double>(labels.size());
  for (const int l : labels)
    frac[static_cast<std::size_t>(
        std::clamp<int>(l, 0, static_cast<int>(kLabelBins) - 1))] += w;
  if (!label_frozen_) {
    for (std::size_t i = 0; i < kLabelBins; ++i) label_base_sum_[i] += frac[i];
    if (samples_ >= baseline_shots_) {
      for (std::size_t i = 0; i < kLabelBins; ++i) {
        label_base_[i] = label_base_sum_[i] / static_cast<double>(samples_);
        label_ewma_[i] = label_base_[i];
      }
      label_frozen_ = true;
    }
  } else {
    for (std::size_t i = 0; i < kLabelBins; ++i)
      label_ewma_[i] = (1.0 - alpha_) * label_ewma_[i] + alpha_ * frac[i];
  }

  if (confidence) {
    ++scored_;
    confidence_.update(*confidence, baseline_signal_, alpha_);
  }

  if (!expected.empty()) {
    ++reference_;
    std::size_t match = 0;
    for (std::size_t q = 0; q < labels.size(); ++q)
      if (labels[q] == expected[q]) ++match;
    fidelity_.update(
        static_cast<double>(match) / static_cast<double>(labels.size()),
        baseline_signal_, alpha_);
  }
}

DriftReport DriftMonitor::report(const DriftConfig& cfg) const {
  DriftReport r;
  r.samples = samples_;
  r.scored = scored_;
  r.reference = reference_;
  if (confidence_.frozen) {
    r.confidence = confidence_.value;
    r.baseline_confidence = confidence_.baseline;
  }
  if (fidelity_.frozen) {
    r.fidelity = fidelity_.value;
    r.baseline_fidelity = fidelity_.baseline;
  }
  if (label_frozen_)
    for (std::size_t i = 0; i < kLabelBins; ++i)
      r.label_l1 += std::abs(label_ewma_[i] - label_base_[i]);
  r.ready = cfg.enabled && samples_ >= cfg.min_samples &&
            (confidence_.frozen || fidelity_.frozen || label_frozen_);
  if (!r.ready) return r;
  const bool conf_drift =
      confidence_.frozen &&
      r.confidence < r.baseline_confidence * (1.0 - cfg.confidence_drop);
  const bool fid_drift =
      fidelity_.frozen &&
      (r.fidelity < r.baseline_fidelity - cfg.fidelity_drop ||
       (cfg.min_fidelity > 0.0 && r.fidelity < cfg.min_fidelity));
  const bool label_drift = label_frozen_ && r.label_l1 > kLabelL1Drift;
  r.drifted = conf_drift || fid_drift || label_drift;
  return r;
}

}  // namespace mlqr
