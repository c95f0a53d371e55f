#include "sim/readout_simulator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace mlqr {
namespace {

ChipProfile clean_chip() {
  ChipProfile chip = ChipProfile::test_two_qubit();
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

TEST(Simulator, TraceShapeMatchesChip) {
  const ReadoutSimulator sim(ChipProfile::test_two_qubit());
  Rng rng(1);
  const ShotRecord shot = sim.simulate_shot({0, 1}, rng);
  EXPECT_EQ(shot.trace.size(), sim.chip().n_samples);
  EXPECT_EQ(shot.label.size(), 2u);
  EXPECT_EQ(shot.final_level.size(), 2u);
}

TEST(Simulator, CleanChipLabelsMatchPreparation) {
  const ReadoutSimulator sim(clean_chip());
  Rng rng(2);
  for (int s = 0; s < 50; ++s) {
    const ShotRecord shot = sim.simulate_shot({1, 0}, rng);
    EXPECT_EQ(shot.label[0], 1);
    EXPECT_EQ(shot.label[1], 0);
    EXPECT_EQ(shot.final_level[0], 1);
  }
}

TEST(Simulator, AdcRespectsFullScale) {
  ChipProfile chip = clean_chip();
  chip.noise_sigma = 50.0;  // Force clipping.
  const ReadoutSimulator sim(chip);
  Rng rng(3);
  const ShotRecord shot = sim.simulate_shot({0, 0}, rng);
  for (std::size_t t = 0; t < shot.trace.size(); ++t) {
    EXPECT_LE(std::abs(shot.trace.i[t]), chip.adc_full_scale);
    EXPECT_LE(std::abs(shot.trace.q[t]), chip.adc_full_scale);
  }
}

TEST(Simulator, AdcQuantizesToGrid) {
  const ChipProfile chip = clean_chip();
  const ReadoutSimulator sim(chip);
  Rng rng(4);
  const ShotRecord shot = sim.simulate_shot({0, 1}, rng);
  const double step =
      chip.adc_full_scale / std::ldexp(1.0, chip.adc_bits - 1);
  for (std::size_t t = 0; t < shot.trace.size(); t += 37) {
    const double codes = shot.trace.i[t] / step;
    EXPECT_NEAR(codes, std::round(codes), 1e-3);
  }
}

TEST(Simulator, BatchIsDeterministicAcrossCalls) {
  const ReadoutSimulator sim(ChipProfile::test_two_qubit());
  const std::vector<std::vector<int>> prep(64, {0, 1});
  const auto batch1 = sim.simulate_batch(prep, 99);
  const auto batch2 = sim.simulate_batch(prep, 99);
  ASSERT_EQ(batch1.size(), batch2.size());
  for (std::size_t s = 0; s < batch1.size(); ++s) {
    ASSERT_EQ(batch1[s].trace.size(), batch2[s].trace.size());
    for (std::size_t t = 0; t < batch1[s].trace.size(); ++t)
      EXPECT_EQ(batch1[s].trace.i[t], batch2[s].trace.i[t]);
  }
}

TEST(Simulator, DifferentSeedsDiffer) {
  const ReadoutSimulator sim(ChipProfile::test_two_qubit());
  const std::vector<std::vector<int>> prep(4, {0, 0});
  const auto a = sim.simulate_batch(prep, 1);
  const auto b = sim.simulate_batch(prep, 2);
  int diffs = 0;
  for (std::size_t t = 0; t < a[0].trace.size(); ++t)
    if (a[0].trace.i[t] != b[0].trace.i[t]) ++diffs;
  EXPECT_GT(diffs, 100);
}

TEST(Simulator, NaturalLeakageRateApproximatelyHonored) {
  ChipProfile chip = clean_chip();
  chip.qubits[0].p_natural_leak_from_1 = 0.05;
  const ReadoutSimulator sim(chip);
  const std::vector<std::vector<int>> prep(20000, {1, 1});
  const auto batch = sim.simulate_batch(prep, 7);
  int leaked = 0;
  for (const auto& shot : batch)
    if (shot.label[0] == 2) ++leaked;
  EXPECT_NEAR(static_cast<double>(leaked) / batch.size(), 0.05, 0.008);
}

TEST(Simulator, WrongPreparationSizeThrows) {
  const ReadoutSimulator sim(ChipProfile::test_two_qubit());
  Rng rng(1);
  EXPECT_THROW(sim.simulate_shot({0}, rng), Error);
  EXPECT_THROW(sim.simulate_shot({0, 1, 0}, rng), Error);
}

TEST(Simulator, MultiplexedToneContainsBothFrequencies) {
  // With noise off, the trace spectrum must show power at both IFs.
  ChipProfile chip = clean_chip();
  chip.noise_sigma = 0.0;
  const ReadoutSimulator sim(chip);
  Rng rng(5);
  const ShotRecord shot = sim.simulate_shot({0, 0}, rng);
  auto tone_power = [&](double f_mhz) {
    Complexd acc{0.0, 0.0};
    for (std::size_t t = 0; t < shot.trace.size(); ++t) {
      const double phase =
          -2.0 * 3.14159265358979 * f_mhz * 1e-3 * chip.dt_ns() * t;
      acc += shot.trace.sample(t) * std::polar(1.0, phase);
    }
    return std::abs(acc) / static_cast<double>(shot.trace.size());
  };
  const double p0 = tone_power(chip.qubits[0].if_freq_mhz);
  const double p1 = tone_power(chip.qubits[1].if_freq_mhz);
  const double off = tone_power(111.0);
  EXPECT_GT(p0, 10.0 * off);
  EXPECT_GT(p1, 10.0 * off);
}

TEST(ChipProfile, WindowSamplesMapsDurationToSamples) {
  const ChipProfile chip = ChipProfile::test_two_qubit();
  EXPECT_EQ(chip.window_samples(0.0), chip.n_samples);  // 0 = full trace.
  EXPECT_EQ(chip.window_samples(200.0), 100u);  // 200 ns at 2 ns/sample.
}

TEST(ChipProfile, WindowSamplesKeepsExactMultiplesOfNonRepresentableDt) {
  // dt = 10/3 ns is not representable in binary floating point, so a
  // duration that is an exact multiple of dt can sit one ulp below the
  // integer after duration/dt. Truncation mapped ~1 in 4 of these windows
  // to k-1 samples (silently dropping the last sample); round-to-nearest
  // must recover every k.
  ChipProfile chip = ChipProfile::test_two_qubit();
  chip.sample_rate_msps = 300.0;  // dt = 10/3 ns.
  for (std::size_t k = 1; k <= chip.n_samples; ++k) {
    const double duration_ns = static_cast<double>(k) * 1e3 / 300.0;
    ASSERT_EQ(chip.window_samples(duration_ns), k)
        << "duration " << duration_ns << " ns";
  }
}

TEST(ChipProfile, WindowSamplesRejectsInvalidDurations) {
  const ChipProfile chip = ChipProfile::test_two_qubit();
  EXPECT_THROW(chip.window_samples(1e9), Error);  // Beyond the trace.
  EXPECT_THROW(chip.window_samples(0.5), Error);  // Below one sample.
}

}  // namespace
}  // namespace mlqr
