// ERASER-style adaptive leakage speculation (Vittal et al., MICRO'23) and
// its multi-level-readout extension ERASER+M (paper SSIII-B, Tables I & VI).
//
// ERASER watches syndrome *flip* activity: a leaked data qubit scrambles
// its adjacent stabilizers every cycle, so sustained multi-neighbour flip
// activity is the speculation signal; a leaked ancilla's own outcome
// flickers randomly. ERASER+M adds direct ancilla |2> detection from
// three-level readout (with the discriminator's measured detection/false-
// positive rates) and uses leakage transport as evidence for data qubits.
// Speculated qubits receive an (imperfect) LRC.
//
// The policy's thresholds are fixed: a data qubit is speculated after two
// consecutive cycles in which at least two adjacent stabilizers flipped
// (at least half, for a boundary qubit); in syndrome-only mode an ancilla is
// speculated after flips in two of its last three cycles. An LRC fixes a
// leaked qubit with probability 0.98 and leaks a healthy one with 0.008.
#pragma once

#include <cstdint>
#include <vector>

#include "qec/leakage_sim.h"
#include "qec/surface_code.h"

namespace mlqr {

/// Aggregate results of a speculation run.
///
/// Positives are scored per leakage *episode* (a contiguous run of cycles
/// a qubit spends leaked): an episode counts as detected if the policy
/// speculates on that qubit at least once before the episode ends
/// (decay or LRC). Negatives are scored per qubit-cycle. Per-cycle
/// positive scoring would penalize a policy for not re-flagging a qubit
/// it already fixed, and raw accuracy over all qubit-cycles would
/// saturate near 1 (leaked cycles are ~0.4% of all).
struct SpeculationStats {
  std::size_t true_positive = 0;   ///< Episodes detected.
  std::size_t false_negative = 0;  ///< Episodes missed entirely.
  std::size_t false_positive = 0;  ///< Non-leaked qubit-cycles flagged.
  std::size_t true_negative = 0;   ///< Non-leaked qubit-cycles passed.
  std::size_t lrc_applications = 0;
  double final_leakage_population = 0.0;  ///< Mean over trials.

  double recall() const;       ///< Episode detection rate.
  double specificity() const;  ///< TNR over computational qubit-cycles.
  /// Balanced accuracy (recall + specificity)/2 — the speculation-accuracy
  /// metric.
  double speculation_accuracy() const;
};

/// Runs `n_trials` independent simulations of `n_cycles` each and pools
/// the statistics. `ml.enabled` picks the policy: false = ERASER, true =
/// ERASER+M. The detection rates are only consulted in ERASER+M mode.
SpeculationStats run_eraser(const SurfaceCode& code, const LeakageRates& rates,
                            const MultiLevelReadout& ml, std::size_t n_cycles,
                            std::size_t n_trials, std::uint64_t seed);

}  // namespace mlqr
