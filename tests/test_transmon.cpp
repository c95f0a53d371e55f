#include "sim/transmon.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace mlqr {
namespace {

QubitProfile quiet_qubit() {
  QubitProfile q;
  q.t1_ns = 1e12;  // Effectively no decay.
  q.p_excite_01 = 0.0;
  q.p_excite_12 = 0.0;
  q.p_excite_02 = 0.0;
  return q;
}

TEST(Transmon, NoRatesNoJumps) {
  QubitProfile q = quiet_qubit();
  const TransitionRates rates = TransitionRates::from_profile(q, 1000.0);
  Rng rng(3);
  for (int init = 0; init < kNumLevels; ++init) {
    const LevelTrajectory traj = sample_trajectory(init, 1000.0, rates, rng);
    // Level 1/2 still have the (negligible) T1 channel; jumps are
    // astronomically unlikely at T1 = 1e12 ns.
    EXPECT_TRUE(traj.jumps.empty());
    EXPECT_EQ(traj.final_level(), init);
  }
}

TEST(Transmon, RelaxationProbabilityMatchesT1) {
  QubitProfile q = quiet_qubit();
  q.t1_ns = 10000.0;
  const double window = 1000.0;
  const TransitionRates rates = TransitionRates::from_profile(q, window);
  Rng rng(5);
  int decayed = 0;
  const int shots = 50000;
  for (int s = 0; s < shots; ++s) {
    const LevelTrajectory traj = sample_trajectory(1, window, rates, rng);
    if (traj.final_level() == 0) ++decayed;
  }
  const double expected = 1.0 - std::exp(-window / q.t1_ns);
  EXPECT_NEAR(static_cast<double>(decayed) / shots, expected, 0.005);
}

TEST(Transmon, ExcitationProbabilityPerWindow) {
  QubitProfile q = quiet_qubit();
  q.p_excite_01 = 0.05;
  const double window = 1000.0;
  const TransitionRates rates = TransitionRates::from_profile(q, window);
  Rng rng(7);
  int excited = 0;
  const int shots = 50000;
  for (int s = 0; s < shots; ++s) {
    // From |0> every trajectory's first jump, if any, is an excitation.
    const LevelTrajectory traj = sample_trajectory(0, window, rates, rng);
    if (!traj.jumps.empty()) ++excited;
  }
  EXPECT_NEAR(static_cast<double>(excited) / shots, 0.05, 0.005);
}

TEST(Transmon, LeakedStateDecaysFasterThanExcited) {
  QubitProfile q = quiet_qubit();
  q.t1_ns = 5000.0;
  q.gamma21_scale = 2.0;
  const TransitionRates rates = TransitionRates::from_profile(q, 1000.0);
  EXPECT_NEAR(rates.down_21, 2.0 * rates.down_10, 1e-15);
}

TEST(Transmon, JumpsAreOrderedAndConsistent) {
  QubitProfile q;
  q.t1_ns = 500.0;  // Fast decay: several jumps likely.
  q.p_excite_01 = 0.3;
  q.p_excite_12 = 0.3;
  const TransitionRates rates = TransitionRates::from_profile(q, 2000.0);
  Rng rng(11);
  for (int s = 0; s < 200; ++s) {
    const LevelTrajectory traj = sample_trajectory(1, 2000.0, rates, rng);
    int level = traj.initial_level;
    double last_t = 0.0;
    for (const LevelJump& j : traj.jumps) {
      EXPECT_GE(j.t_ns, last_t);
      EXPECT_EQ(j.from, level);
      EXPECT_NE(j.from, j.to);
      level = j.to;
      last_t = j.t_ns;
    }
    EXPECT_EQ(traj.final_level(), level);
  }
}

TEST(Transmon, FinalLevelIsTheLastJumpTarget) {
  LevelTrajectory traj;
  traj.initial_level = 1;
  EXPECT_EQ(traj.final_level(), 1);  // No jumps: the initial level.
  traj.jumps = {{100.0, 1, 0}, {300.0, 0, 2}};
  EXPECT_EQ(traj.final_level(), 2);
}

TEST(Transmon, InvalidInputsThrow) {
  const TransitionRates rates{};
  Rng rng(1);
  EXPECT_THROW(sample_trajectory(-1, 100.0, rates, rng), Error);
  EXPECT_THROW(sample_trajectory(3, 100.0, rates, rng), Error);
  EXPECT_THROW(sample_trajectory(0, 0.0, rates, rng), Error);
}

}  // namespace
}  // namespace mlqr
