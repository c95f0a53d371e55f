#include "sim/chip_profile.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.h"

namespace mlqr {

std::size_t ChipProfile::window_samples(double duration_ns) const {
  if (duration_ns <= 0.0) return n_samples;
  const auto samples =
      static_cast<std::size_t>(std::llround(duration_ns / dt_ns()));
  MLQR_CHECK_MSG(samples > 0 && samples <= n_samples,
                 "duration " << duration_ns << " ns maps to " << samples
                             << " samples (trace has " << n_samples << ')');
  return samples;
}

namespace {

/// Places the three per-level responses on a circle of radius `amp` at the
/// given phase angles (degrees). Distinct angles -> distinguishable states.
void set_alpha(QubitProfile& q, double amp, double deg0, double deg1,
               double deg2) {
  const double rad = std::numbers::pi / 180.0;
  q.alpha[0] = std::polar(amp, deg0 * rad);
  q.alpha[1] = std::polar(amp, deg1 * rad);
  q.alpha[2] = std::polar(amp, deg2 * rad);
}

}  // namespace

void ChipProfile::validate() const {
  MLQR_CHECK_MSG(!qubits.empty(), "chip has no qubits");
  MLQR_CHECK(n_samples > 0);
  MLQR_CHECK(sample_rate_msps > 0.0);
  const double nyquist_mhz = sample_rate_msps / 2.0;
  for (const auto& q : qubits) {
    MLQR_CHECK_MSG(q.if_freq_mhz > 0.0 && q.if_freq_mhz < nyquist_mhz,
                   "IF " << q.if_freq_mhz << " MHz violates Nyquist ("
                         << nyquist_mhz << " MHz)");
    MLQR_CHECK(q.t1_ns > 0.0);
    MLQR_CHECK(q.resonator_tau_ns > 0.0);
  }
  MLQR_CHECK_MSG(crosstalk.size() == qubits.size(),
                 "crosstalk matrix must be num_qubits x num_qubits");
  for (const auto& row : crosstalk) MLQR_CHECK(row.size() == qubits.size());
  MLQR_CHECK(adc_bits >= 4 && adc_bits <= 16);
  MLQR_CHECK(adc_full_scale > 0.0);
  MLQR_CHECK(noise_sigma >= 0.0);
}

ChipProfile ChipProfile::mitll_five_qubit() {
  ChipProfile chip;
  chip.qubits.resize(5);

  // Qubit 0 — good SNR, long T1. IF tones are spaced 11.5-13.5 MHz apart
  // (non-integer multiples of the 1 MHz window bin to leave realistic
  // inter-tone residuals).
  {
    QubitProfile& q = chip.qubits[0];
    q.if_freq_mhz = 30.0;
    set_alpha(q, 1.0, 0.0, 95.0, 205.0);
    q.t1_ns = 38000.0;
    q.p_excite_01 = 0.002;
    q.p_excite_12 = 0.003;
    q.p_natural_leak_from_1 = 0.008;
    q.p_natural_leak_from_0 = 0.0015;
  }
  // Qubit 1 — the paper's problem qubit ("distinguishability ... limited
  // due to the experimental setup"): weak resonator response, so every
  // level pair sits only ~2 noise scales apart, and short T1.
  {
    QubitProfile& q = chip.qubits[1];
    q.if_freq_mhz = 41.5;
    set_alpha(q, 0.60, 0.0, 120.0, 240.0);
    q.t1_ns = 7000.0;
    q.p_excite_01 = 0.004;
    q.p_excite_12 = 0.005;
    q.p_natural_leak_from_1 = 0.012;
    q.p_natural_leak_from_0 = 0.002;
  }
  // Qubit 2 — moderate SNR, mid T1.
  {
    QubitProfile& q = chip.qubits[2];
    q.if_freq_mhz = 52.5;
    set_alpha(q, 1.0, 10.0, 118.0, 232.0);
    q.t1_ns = 26000.0;
    q.p_excite_01 = 0.003;
    q.p_excite_12 = 0.004;
    q.p_natural_leak_from_1 = 0.010;
    q.p_natural_leak_from_0 = 0.002;
  }
  // Qubit 3 — excitation-prone (paper uses it for the EMF study).
  {
    QubitProfile& q = chip.qubits[3];
    q.if_freq_mhz = 66.0;
    set_alpha(q, 1.0, -15.0, 100.0, 215.0);
    q.t1_ns = 15000.0;
    q.p_excite_01 = 0.010;
    q.p_excite_12 = 0.016;
    q.p_excite_02 = 0.002;
    q.p_natural_leak_from_1 = 0.020;
    q.p_natural_leak_from_0 = 0.004;
  }
  // Qubit 4 — most leakage-prone (largest mined-leakage cluster in the
  // paper), good SNR.
  {
    QubitProfile& q = chip.qubits[4];
    q.if_freq_mhz = 78.5;
    set_alpha(q, 1.05, 5.0, 110.0, 225.0);
    q.t1_ns = 30000.0;
    q.p_excite_01 = 0.008;
    q.p_excite_12 = 0.014;
    q.p_excite_02 = 0.0015;
    q.p_natural_leak_from_1 = 0.030;
    q.p_natural_leak_from_0 = 0.005;
  }

  // Crosstalk: nearest IF neighbours couple at ~8-12% with a phase twist;
  // next-nearest at ~1.5%.
  const std::size_t n = chip.qubits.size();
  chip.crosstalk.assign(n, std::vector<std::complex<double>>(n, {0.0, 0.0}));
  for (std::size_t i = 0; i < n; ++i) chip.crosstalk[i][i] = {1.0, 0.0};
  auto couple = [&](std::size_t a, std::size_t b, double mag, double deg) {
    const double rad = std::numbers::pi / 180.0;
    chip.crosstalk[a][b] = std::polar(mag, deg * rad);
    chip.crosstalk[b][a] = std::polar(mag, -deg * rad);
  };
  couple(0, 1, 0.10, 30.0);
  couple(1, 2, 0.12, -45.0);
  couple(2, 3, 0.09, 60.0);
  couple(3, 4, 0.11, -20.0);
  couple(0, 2, 0.015, 10.0);
  couple(1, 3, 0.018, -15.0);
  couple(2, 4, 0.015, 25.0);

  chip.noise_sigma = 6.0;
  chip.adc_bits = 12;
  chip.adc_full_scale = 14.0;
  chip.sample_rate_msps = 500.0;
  chip.n_samples = 500;
  chip.validate();
  return chip;
}

ChipProfile ChipProfile::test_two_qubit() {
  ChipProfile chip;
  chip.qubits.resize(2);
  chip.qubits[0].if_freq_mhz = 40.0;
  set_alpha(chip.qubits[0], 1.0, 0.0, 110.0, 230.0);
  chip.qubits[0].t1_ns = 25000.0;
  chip.qubits[1].if_freq_mhz = 62.0;
  set_alpha(chip.qubits[1], 1.0, 20.0, 135.0, 250.0);
  chip.qubits[1].t1_ns = 18000.0;

  chip.crosstalk = {{{1.0, 0.0}, {0.08, 0.02}}, {{0.08, -0.02}, {1.0, 0.0}}};
  chip.noise_sigma = 4.0;
  chip.n_samples = 250;
  chip.validate();
  return chip;
}

DriftSchedule DriftSchedule::constant(double v) {
  DriftSchedule s;
  s.add_knot(0.0, v);
  return s;
}

DriftSchedule DriftSchedule::ramp(double t0, double v0, double t1, double v1) {
  MLQR_CHECK_MSG(t1 >= t0, "drift ramp runs backwards (t1 " << t1 << " < t0 "
                                                            << t0 << ')');
  DriftSchedule s;
  s.add_knot(t0, v0);
  s.add_knot(t1, v1);
  return s;
}

void DriftSchedule::add_knot(double t, double v) {
  const auto pos = std::upper_bound(
      knots_.begin(), knots_.end(), t,
      [](double lhs, const std::pair<double, double>& k) { return lhs < k.first; });
  knots_.insert(pos, {t, v});
}

double DriftSchedule::at(double t) const {
  if (knots_.empty()) return 0.0;
  if (t < knots_.front().first) return knots_.front().second;
  if (t >= knots_.back().first) return knots_.back().second;
  // Last knot at or before t; scanning from the back makes the later of
  // duplicate-time knots win, which is what encodes a step.
  std::size_t i = knots_.size() - 1;
  while (knots_[i].first > t) --i;
  if (knots_[i].first == t || knots_[i + 1].first == knots_[i].first)
    return knots_[i].second;
  const double span = knots_[i + 1].first - knots_[i].first;
  const double frac = (t - knots_[i].first) / span;
  return knots_[i].second + frac * (knots_[i + 1].second - knots_[i].second);
}

ChipProfile ChipDrift::apply(const ChipProfile& base, double t) const {
  ChipProfile out = base;
  const double rad = std::numbers::pi / 180.0;
  const std::size_t n = std::min(phase_deg.size(), out.qubits.size());
  for (std::size_t q = 0; q < n; ++q) {
    QubitProfile& qp = out.qubits[q];
    const std::complex<double> rot = std::polar(1.0, phase_deg[q].at(t) * rad);
    for (int l = 0; l < kNumLevels; ++l) qp.alpha[l] *= rot;
  }
  out.validate();
  return out;
}

}  // namespace mlqr
