// Device model of a frequency-multiplexed superconducting readout chip.
//
// This is the synthetic stand-in for the five-qubit MIT-LL device of
// Lienhard et al. [1] used by the paper (see DESIGN.md §1). Every parameter
// maps to a physical mechanism the discriminators must cope with:
//   * per-level resonator response (alpha)  → state separation / SNR
//   * resonator linewidth (ring-up tau)     → transient at trace start
//   * T1 / excitation rates                 → mid-trace relaxation and
//                                             excitation error patterns
//   * crosstalk matrix                      → inter-channel interference
//   * natural leakage priors                → rare |2> traces in nominally
//                                             two-level calibration data
#pragma once

#include <complex>
#include <cstddef>
#include <utility>
#include <vector>

namespace mlqr {

/// Maximum transmon level the simulator tracks (0,1,2 — "2" is the leaked
/// state L in the paper's notation).
inline constexpr int kNumLevels = 3;

/// Static readout parameters of one qubit + its readout resonator.
struct QubitProfile {
  /// Intermediate frequency of this qubit's readout tone on the shared
  /// feedline, in MHz (ADC-relative, must be below Nyquist).
  double if_freq_mhz = 50.0;

  /// Steady-state baseband resonator response for each transmon level.
  /// Separation between entries (relative to noise) sets the state SNR.
  std::complex<double> alpha[kNumLevels] = {{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}};

  /// Resonator ring-up/ring-down time constant (ns) — response relaxes
  /// toward alpha[level] first-order with this constant (~2/kappa).
  double resonator_tau_ns = 120.0;

  /// Relaxation time of |1> -> |0> in ns. Paper device: 7 us .. 40 us.
  double t1_ns = 20000.0;

  /// Gamma(2->1) = gamma21_scale / t1 (transmon: ~2x faster decay from |2>).
  double gamma21_scale = 2.0;

  /// Gamma(2->0) direct decay as a fraction of Gamma(1->0).
  double gamma20_scale = 0.1;

  /// Measurement-induced excitation probabilities over a 1 us window.
  double p_excite_01 = 0.003;  ///< |0> -> |1>
  double p_excite_12 = 0.004;  ///< |1> -> |2>
  double p_excite_02 = 0.0005; ///< |0> -> |2> (rare two-photon)

  /// Natural leakage priors at readout start: probability that a qubit
  /// nominally prepared in |1> (resp. |0>) actually begins the readout
  /// window leaked in |2>. These produce the un-calibrated leakage traces
  /// that spectral clustering mines (paper SS V-A).
  double p_natural_leak_from_1 = 0.01;
  double p_natural_leak_from_0 = 0.002;

  /// State-preparation bit error: prepared |1> starts as |0> (and vice
  /// versa) with this probability.
  double p_prep_error = 0.004;
};

/// Full chip: qubit array + feedline-level parameters.
struct ChipProfile {
  std::vector<QubitProfile> qubits;

  /// Readout crosstalk: complex mixing of baseband envelopes before they
  /// modulate the feedline; entry (i,j) is how much of qubit j's envelope
  /// leaks into qubit i's tone. Diagonal is 1.
  std::vector<std::vector<std::complex<double>>> crosstalk;

  /// Additive amplifier noise sigma per ADC sample (same units as alpha).
  double noise_sigma = 6.0;

  /// ADC model.
  int adc_bits = 12;
  double adc_full_scale = 12.0;  ///< Input range [-fs, +fs] maps onto codes.
  double sample_rate_msps = 500.0;
  std::size_t n_samples = 500;   ///< 1 us at 500 MS/s.

  std::size_t num_qubits() const { return qubits.size(); }
  double dt_ns() const { return 1e3 / sample_rate_msps; }
  double duration_ns() const { return dt_ns() * static_cast<double>(n_samples); }

  /// Maps a readout duration to a sample window: 0 means the full trace,
  /// otherwise round(duration/dt) — nearest, not truncation, so a duration
  /// that is an exact multiple of a non-representable dt (e.g. 10/3 ns at
  /// 300 MS/s) never loses its last sample to floating-point
  /// representation error. Every duration-aware caller resolves through
  /// this one helper so they agree on the window. Throws when the
  /// result is 0 or exceeds n_samples.
  std::size_t window_samples(double duration_ns) const;

  /// Validates invariants (Nyquist, crosstalk shape, level ordering).
  void validate() const;

  /// The default five-qubit profile calibrated to the asymmetries the paper
  /// reports for the Lienhard et al. device: qubit 2 has weak |1>/|2>
  /// separation, qubits 3 and 4 are excitation- and leakage-prone, T1 spans
  /// 7..40 us.
  static ChipProfile mitll_five_qubit();

  /// Small two-qubit profile for fast unit tests.
  static ChipProfile test_two_qubit();
};

/// Piecewise-linear trajectory of one scalar drift term over wall time
/// (units of `t` are whatever the caller uses consistently — the drift
/// soak uses seconds). Values clamp outside the knot range and
/// interpolate linearly inside it; with duplicate-time knots the later
/// knot wins from that time on, which encodes a discontinuity. An empty
/// schedule is identically 0 (no drift).
class DriftSchedule {
 public:
  DriftSchedule() = default;

  /// Time-independent value v.
  static DriftSchedule constant(double v);
  /// v0 before t0, linear to v1 over [t0, t1], v1 after (t1 >= t0).
  static DriftSchedule ramp(double t0, double v0, double t1, double v1);

  /// Inserts a knot, keeping knots sorted by time (stable for ties: a
  /// knot added later at the same time supersedes the earlier one).
  void add_knot(double t, double v);

  /// Evaluates the trajectory at time t.
  double at(double t) const;

  bool empty() const { return knots_.empty(); }

 private:
  std::vector<std::pair<double, double>> knots_;  ///< Sorted by time.
};

/// Chip-level drift model: per-qubit resonator phase trajectories.
/// apply() materializes the drifted profile at one instant; feed it to a fresh ReadoutSimulator (the simulator precomputes its
/// response tables at construction, so a drifted profile needs a new
/// instance).
struct ChipDrift {
  /// Per-qubit additive rotation (degrees) of every level's resonator
  /// response — the signature of a drifting resonator frequency relative
  /// to its probe tone. Rotates the IQ constellation without changing SNR.
  /// Qubits beyond this vector's length (or the whole chip, when empty)
  /// are undrifted.
  std::vector<DriftSchedule> phase_deg;

  /// The drifted profile at time t (validated before returning).
  ChipProfile apply(const ChipProfile& base, double t) const;
};

}  // namespace mlqr
