#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/error.h"
#include "dsp/demodulator.h"
#include "dsp/filters.h"
#include "sim/readout_simulator.h"

namespace mlqr {
namespace {

ChipProfile noiseless_chip() {
  ChipProfile chip = ChipProfile::test_two_qubit();
  chip.noise_sigma = 0.0;
  for (auto& q : chip.qubits) {
    q.p_prep_error = 0.0;
    q.p_natural_leak_from_0 = 0.0;
    q.p_natural_leak_from_1 = 0.0;
    q.p_excite_01 = 0.0;
    q.p_excite_12 = 0.0;
    q.p_excite_02 = 0.0;
    q.t1_ns = 1e12;
  }
  return chip;
}

TEST(Demodulator, RecoversStatePointAtBaseband) {
  const ChipProfile chip = noiseless_chip();
  const ReadoutSimulator sim(chip);
  const Demodulator demod(chip);
  Rng rng(1);
  const ShotRecord shot = sim.simulate_shot({0, 1}, rng);

  for (std::size_t q = 0; q < 2; ++q) {
    const BasebandTrace bb = demod.demodulate(shot.trace, q, 0);
    // The tail of the demodulated trace must sit near the crosstalk-mixed
    // steady-state response of the prepared level; at minimum it must be
    // much closer to its own alpha than to the other level's.
    const Complexd target = chip.qubits[q].alpha[q == 0 ? 0 : 1];
    const Complexd other = chip.qubits[q].alpha[q == 0 ? 1 : 0];
    // Average the last quarter to suppress the residual image tones.
    const Complexd tail = window_mean(bb, bb.size() * 3 / 4, bb.size());
    EXPECT_LT(std::abs(tail - target), std::abs(tail - other));
  }
}

TEST(Demodulator, LoTracksExactPolarOverLongTraces) {
  // The LO advances by repeated complex multiplication; without periodic
  // re-anchoring the magnitude/phase error grows O(n*eps) and a 10k-sample
  // trace visibly drifts from the exact polar form.
  const ChipProfile chip = noiseless_chip();
  const Demodulator demod(chip);
  const std::size_t n = 10000;
  IqTrace trace(n);
  for (std::size_t t = 0; t < n; ++t) trace.i[t] = 1.0f;  // Unit carrier.

  const BasebandTrace bb = demod.demodulate(trace, 0, n);
  const double omega = 2.0 * std::numbers::pi *
                       chip.qubits[0].if_freq_mhz * 1e-3 * chip.dt_ns();
  double worst = 0.0;
  double worst_mag = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    const Complexd exact = std::polar(1.0, -omega * static_cast<double>(t));
    worst = std::max(worst, std::abs(bb[t] - exact));
    worst_mag = std::max(worst_mag, std::abs(std::abs(bb[t]) - 1.0));
  }
  EXPECT_LT(worst, 1e-12);
  EXPECT_LT(worst_mag, 1e-12);
}

TEST(Demodulator, LoPhaseAccessorIsExact) {
  const ChipProfile chip = noiseless_chip();
  const Demodulator demod(chip);
  const double omega = 2.0 * std::numbers::pi *
                       chip.qubits[1].if_freq_mhz * 1e-3 * chip.dt_ns();
  for (std::size_t t : {std::size_t{0}, std::size_t{1}, std::size_t{12345}}) {
    const Complexd lo = demod.lo_phase(1, t);
    EXPECT_NEAR(std::abs(lo), 1.0, 1e-15);
    const Complexd exact = std::polar(1.0, -omega * static_cast<double>(t));
    EXPECT_NEAR(std::abs(lo - exact), 0.0, 1e-15);
  }
  EXPECT_THROW(demod.lo_phase(5, 0), Error);
}

TEST(Demodulator, TruncationLimitsSamples) {
  const ChipProfile chip = noiseless_chip();
  const Demodulator demod(chip);
  IqTrace trace(chip.n_samples);
  const BasebandTrace bb = demod.demodulate(trace, 0, 100);
  EXPECT_EQ(bb.size(), 100u);
}

TEST(Demodulator, DemodulateIntoMatchesAndReusesCapacity) {
  const ChipProfile chip = noiseless_chip();
  const ReadoutSimulator sim(chip);
  const Demodulator demod(chip);
  Rng rng(7);
  const IqTrace a = sim.simulate_shot({1, 0}, rng).trace;
  const IqTrace b = sim.simulate_shot({0, 1}, rng).trace;

  BasebandTrace out;
  demod.demodulate_into(a, 1, 0, out);
  EXPECT_EQ(out, demod.demodulate(a, 1, 0));
  // Steady state: a reused buffer keeps its storage, and a shorter window
  // (a readout-duration sweep) truncates in place.
  const Complexd* before = out.data();
  demod.demodulate_into(b, 1, 100, out);
  EXPECT_EQ(out.data(), before);
  EXPECT_EQ(out, demod.demodulate(b, 1, 100));
}

TEST(Demodulator, OutOfRangeQubitThrows) {
  const Demodulator demod(ChipProfile::test_two_qubit());
  IqTrace trace(16);
  EXPECT_THROW(demod.demodulate(trace, 5, 0), Error);
}

TEST(Filters, MeanTraceValue) {
  BasebandTrace tr{{1.0, 0.0}, {3.0, 2.0}};
  const Complexd m = mean_trace_value(tr);
  EXPECT_DOUBLE_EQ(m.real(), 2.0);
  EXPECT_DOUBLE_EQ(m.imag(), 1.0);
}

TEST(Filters, WindowMeanSubrange) {
  BasebandTrace tr{{0, 0}, {2, 0}, {4, 0}, {6, 0}};
  EXPECT_DOUBLE_EQ(window_mean(tr, 1, 3).real(), 3.0);
  EXPECT_THROW(window_mean(tr, 2, 2), Error);
  EXPECT_THROW(window_mean(tr, 0, 5), Error);
}

}  // namespace
}  // namespace mlqr
