// Digital down-conversion of the multiplexed feedline trace.
//
// Each qubit's readout tone sits at its own intermediate frequency on the
// shared ADC channel. Demodulation mixes the digitized trace down to
// baseband per qubit: z_q(t) = (I(t) + iQ(t)) * exp(-i 2 pi f_q t). This is
// the cheap stage of the pipeline (two FMA units per sample per quadrature,
// as the paper's footnote notes); all discriminators other than the raw
// FNN baseline consume its output.
#pragma once

#include <iosfwd>
#include <vector>

#include "sim/chip_profile.h"
#include "sim/iq.h"

namespace mlqr {

/// Down-converts multiplexed traces to per-qubit baseband.
class Demodulator {
 public:
  /// Empty demodulator (no channels); reassign before use.
  Demodulator() = default;

  /// Captures the IF plan and sample timing from the chip profile.
  explicit Demodulator(const ChipProfile& chip);

  std::size_t num_qubits() const { return tone_step_.size(); }

  /// Baseband trace of one qubit. `max_samples` truncates the window
  /// (readout-duration sweeps); 0 means the full trace.
  BasebandTrace demodulate(const IqTrace& trace, std::size_t qubit,
                           std::size_t max_samples = 0) const;

  /// Allocation-free variant: writes into `out` (resized to the window),
  /// reusing its capacity. The streaming engine's per-worker scratch path.
  void demodulate_into(const IqTrace& trace, std::size_t qubit,
                       std::size_t max_samples, BasebandTrace& out) const;

  /// Exact LO phasor exp(-i*2*pi*f_q*dt*t) for qubit `q` at sample `t`,
  /// computed directly from the phase angle (no accumulated recurrence
  /// error). The quantized front-end builds its LO lookup tables and
  /// pre-rotated kernels from this.
  Complexd lo_phase(std::size_t qubit, std::size_t t) const;

  /// Binary little-endian persistence of the IF plan (calibration snapshot
  /// leaf): tone angles travel as exact f64 bit patterns and the phasor
  /// steps are rebuilt with the same std::polar call the constructor uses,
  /// so a reloaded demodulator is bit-identical.
  void save(std::ostream& os) const;
  static Demodulator load(std::istream& is);

 private:
  std::vector<Complexd> tone_step_;  ///< exp(-i*2*pi*f_q*dt) per qubit.
  std::vector<double> tone_angle_;   ///< -2*pi*f_q*dt per qubit.
};

}  // namespace mlqr
