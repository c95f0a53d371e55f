// Readout fidelity metrics (paper Tables II/IV/V conventions).
//
// Per-qubit fidelity is the macro-average over the qubit's k levels of
// P(assigned == l | true == l): with natural leakage the |2> level is rare
// in the test set, so a plain (micro) accuracy would reward classifiers
// that never predict |2> — macro-averaging is what exposes the HERQULES
// collapse the paper reports. F5Q is the geometric mean across qubits.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "sim/chip_profile.h"

namespace mlqr {

/// k x k confusion counts for one qubit (rows = true level, cols = assigned).
struct QubitConfusion {
  std::array<std::array<std::size_t, kNumLevels>, kNumLevels> counts{};

  void add(int true_level, int assigned);
  std::size_t row_total(int true_level) const;

  /// P(assigned == l | true == l); returns 1 for levels absent in the data
  /// (they contribute no evidence either way).
  double per_level_accuracy(int level) const;

  /// Macro-average over levels present in the data.
  double macro_fidelity() const;
};

/// Whole-register evaluation result.
struct FidelityReport {
  std::vector<QubitConfusion> per_qubit;

  double qubit_fidelity(std::size_t q) const;  ///< Macro, per the paper.

  /// Geometric mean of per-qubit fidelities: F5Q = (prod F_q)^(1/n).
  double geometric_mean_fidelity() const;

  /// Mean fidelity excluding the given qubits (Table VI excludes qubit 2
  /// "due to experimental limitations during its setup").
  double mean_fidelity_excluding(std::span<const std::size_t> excluded) const;

  /// 1 - mean_fidelity_excluding — the paper's "Error(%)" column.
  double readout_error_excluding(std::span<const std::size_t> excluded) const;
};

}  // namespace mlqr
