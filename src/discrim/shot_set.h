// Labeled collections of multiplexed readout shots — the common currency
// between the dataset generator and every discriminator trainer.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/demodulator.h"
#include "sim/iq.h"

namespace mlqr {

/// A batch of multiplexed traces with per-qubit integer level labels.
/// Labels are stored flat, row-major (shot-major): label(s, q) =
/// labels[s * n_qubits + q].
struct ShotSet {
  std::vector<IqTrace> traces;
  std::vector<int> labels;
  std::size_t n_qubits = 0;

  std::size_t size() const { return traces.size(); }
  bool empty() const { return traces.empty(); }

  int label(std::size_t shot, std::size_t qubit) const;

  /// Shape invariants; throws on violation.
  void validate() const;
};

/// Demodulates one qubit's baseband traces for a subset of shots (parallel
/// over shots). Trainers process qubits sequentially through this helper so
/// peak memory stays at one qubit's worth of baseband data.
/// `max_samples` = 0 keeps full traces (readout-duration sweeps truncate).
std::vector<BasebandTrace> demodulate_subset(const ShotSet& shots,
                                             std::span<const std::size_t> subset,
                                             const Demodulator& demod,
                                             std::size_t qubit,
                                             std::size_t max_samples);

}  // namespace mlqr
