// Continuous-time Markov chain over transmon levels during readout.
//
// While the resonator is probed the qubit can relax (|2>->|1>->|0>, plus a
// weak direct |2>->|0> channel) or be measurement-excited upward. The
// trajectory — the piecewise-constant level as a function of time — drives
// the resonator envelope and is what the relaxation/excitation matched
// filters (RMF/EMF) are designed to detect.
#pragma once

#include <vector>

#include "common/rng.h"
#include "sim/chip_profile.h"

namespace mlqr {

/// One stochastic level jump during the readout window.
struct LevelJump {
  double t_ns = 0.0;
  int from = 0;
  int to = 0;
};

/// Piecewise-constant level trajectory over [0, duration_ns].
struct LevelTrajectory {
  int initial_level = 0;
  std::vector<LevelJump> jumps;  ///< Sorted by time.

  /// Final level at the end of the window.
  int final_level() const;
};

/// Per-transition rates (1/ns) derived from a QubitProfile and the readout
/// duration (excitation probabilities are specified per full window).
struct TransitionRates {
  double down_10 = 0.0;
  double down_21 = 0.0;
  double down_20 = 0.0;
  double up_01 = 0.0;
  double up_12 = 0.0;
  double up_02 = 0.0;

  static TransitionRates from_profile(const QubitProfile& q,
                                      double window_ns);
};

/// Samples a CTMC trajectory starting from `initial_level` using competing
/// exponential clocks; exact (event-driven), not time-stepped.
LevelTrajectory sample_trajectory(int initial_level, double duration_ns,
                                  const TransitionRates& rates, Rng& rng);

}  // namespace mlqr
