#include "qec/eraser.h"

#include <gtest/gtest.h>

namespace mlqr {
namespace {

TEST(Eraser, StatsArithmetic) {
  SpeculationStats s;
  s.true_positive = 80;
  s.false_negative = 20;
  s.true_negative = 990;
  s.false_positive = 10;
  EXPECT_NEAR(s.recall(), 0.8, 1e-12);
  EXPECT_NEAR(s.specificity(), 0.99, 1e-12);
  EXPECT_NEAR(s.speculation_accuracy(), 0.895, 1e-12);
}

TEST(Eraser, AccountingIsConsistent) {
  const SurfaceCode code(3);
  LeakageRates rates;
  rates.p_leak_data = 0.01;  // Enough injections for episodes to occur.
  rates.p_leak_ancilla = 0.01;
  const std::size_t cycles = 10, trials = 50;
  const SpeculationStats s =
      run_eraser(code, rates, MultiLevelReadout{}, cycles, trials, 3);
  // Negatives are per qubit-cycle, positives per episode: the negative
  // count is bounded by the total qubit-cycles, and episodes exist.
  EXPECT_LE(s.true_negative + s.false_positive,
            trials * cycles * (code.num_data() + code.num_stabilizers()));
  EXPECT_GT(s.true_positive + s.false_negative, 0u);
  EXPECT_GE(s.speculation_accuracy(), 0.0);
  EXPECT_LE(s.speculation_accuracy(), 1.0);
  EXPECT_GE(s.recall(), 0.0);
  EXPECT_LE(s.recall(), 1.0);
}

TEST(Eraser, MultiLevelReadoutImprovesSpeculation) {
  const SurfaceCode code(5);
  const LeakageRates rates;
  const SpeculationStats s_base =
      run_eraser(code, rates, MultiLevelReadout{}, 10, 300, 5);

  MultiLevelReadout ml;
  ml.enabled = true;
  ml.p_detect_leaked = 0.95;
  ml.p_false_leaked = 0.005;
  const SpeculationStats s_ml = run_eraser(code, rates, ml, 10, 300, 5);

  EXPECT_GT(s_ml.speculation_accuracy(), s_base.speculation_accuracy());
  EXPECT_LT(s_ml.final_leakage_population, s_base.final_leakage_population);
}

TEST(Eraser, WorseReadoutDegradesSpeculation) {
  const SurfaceCode code(5);
  const LeakageRates rates;

  MultiLevelReadout good, bad;
  good.enabled = bad.enabled = true;
  good.p_detect_leaked = 0.97;
  good.p_false_leaked = 0.005;
  bad.p_detect_leaked = 0.55;
  bad.p_false_leaked = 0.05;

  const SpeculationStats s_good = run_eraser(code, rates, good, 10, 300, 7);
  const SpeculationStats s_bad = run_eraser(code, rates, bad, 10, 300, 7);
  EXPECT_GT(s_good.speculation_accuracy(), s_bad.speculation_accuracy());
}

TEST(Eraser, DeterministicGivenSeed) {
  const SurfaceCode code(3);
  const LeakageRates rates;
  const SpeculationStats a =
      run_eraser(code, rates, MultiLevelReadout{}, 5, 10, 42);
  const SpeculationStats b =
      run_eraser(code, rates, MultiLevelReadout{}, 5, 10, 42);
  EXPECT_EQ(a.true_positive, b.true_positive);
  EXPECT_EQ(a.lrc_applications, b.lrc_applications);
  EXPECT_DOUBLE_EQ(a.final_leakage_population, b.final_leakage_population);
}

// MultiLevelReadout::enabled is the one ERASER/ERASER+M switch: with it off,
// the detection rates are never read, and no RNG draw depends on them.
TEST(Eraser, DisabledMultiLevelReadoutIgnoresItsRates) {
  const SurfaceCode code(3);
  LeakageRates rates;
  rates.p_leak_data = 0.01;
  rates.p_leak_ancilla = 0.01;
  MultiLevelReadout off;
  off.p_detect_leaked = 0.5;
  off.p_false_leaked = 0.2;
  const SpeculationStats a = run_eraser(code, rates, off, 10, 50, 9);
  const SpeculationStats b =
      run_eraser(code, rates, MultiLevelReadout{}, 10, 50, 9);
  EXPECT_EQ(a.true_positive, b.true_positive);
  EXPECT_EQ(a.false_negative, b.false_negative);
  EXPECT_EQ(a.false_positive, b.false_positive);
  EXPECT_EQ(a.true_negative, b.true_negative);
  EXPECT_EQ(a.lrc_applications, b.lrc_applications);
  EXPECT_EQ(a.final_leakage_population, b.final_leakage_population);

  // The same rates with the switch on do change the run.
  MultiLevelReadout on = off;
  on.enabled = true;
  const SpeculationStats c = run_eraser(code, rates, on, 10, 50, 9);
  EXPECT_NE(c.false_positive, b.false_positive);
}

}  // namespace
}  // namespace mlqr
