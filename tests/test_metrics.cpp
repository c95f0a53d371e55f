#include "discrim/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "pipeline/readout_engine.h"

namespace mlqr {
namespace {

TEST(Metrics, ConfusionAccounting) {
  QubitConfusion c;
  c.add(0, 0);
  c.add(0, 0);
  c.add(0, 1);
  c.add(1, 1);
  c.add(2, 0);
  EXPECT_EQ(c.row_total(0), 3u);
  EXPECT_NEAR(c.per_level_accuracy(0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(c.per_level_accuracy(1), 1.0, 1e-12);
  EXPECT_NEAR(c.per_level_accuracy(2), 0.0, 1e-12);
}

TEST(Metrics, MacroAveragesOverPresentLevels) {
  QubitConfusion c;
  // 90 correct of 100 for level 0; 1 of 10 for level 2.
  for (int i = 0; i < 90; ++i) c.add(0, 0);
  for (int i = 0; i < 10; ++i) c.add(0, 1);
  c.add(2, 2);
  for (int i = 0; i < 9; ++i) c.add(2, 0);
  EXPECT_NEAR(c.macro_fidelity(), (0.9 + 0.1) / 2.0, 1e-12);
}

TEST(Metrics, AbsentLevelsDoNotPenalize) {
  QubitConfusion c;
  c.add(0, 0);
  c.add(1, 1);
  EXPECT_NEAR(c.macro_fidelity(), 1.0, 1e-12);
  EXPECT_NEAR(c.per_level_accuracy(2), 1.0, 1e-12);
}

TEST(Metrics, GeometricMeanFidelity) {
  FidelityReport r;
  r.per_qubit.resize(2);
  for (int i = 0; i < 9; ++i) r.per_qubit[0].add(0, 0);
  r.per_qubit[0].add(0, 1);  // F = 0.9.
  for (int i = 0; i < 2; ++i) r.per_qubit[1].add(0, 0);
  for (int i = 0; i < 2; ++i) r.per_qubit[1].add(0, 1);  // F = 0.5.
  EXPECT_NEAR(r.geometric_mean_fidelity(), std::sqrt(0.9 * 0.5), 1e-9);
}

TEST(Metrics, ExclusionFollowsPaperConvention) {
  FidelityReport r;
  r.per_qubit.resize(3);
  for (auto& c : r.per_qubit) c.add(0, 0);  // All perfect...
  r.per_qubit[1].add(0, 1);                 // ...except qubit 1 (F=0.5).
  const std::size_t excluded[] = {1};
  EXPECT_NEAR(r.mean_fidelity_excluding(excluded), 1.0, 1e-12);
  EXPECT_NEAR(r.readout_error_excluding(excluded), 0.0, 1e-12);
  EXPECT_LT(r.mean_fidelity_excluding({}), 1.0);
}

/// A backend that answers level 0 for every qubit of every shot.
EngineBackend constant_backend(std::size_t n_qubits) {
  return EngineBackend("constant", n_qubits,
                       [](const IqTrace&, InferenceScratch&, std::span<int> out) {
                         std::fill(out.begin(), out.end(), 0);
                       });
}

TEST(Metrics, EvaluateClassifierCountsPerQubit) {
  ShotSet shots;
  shots.n_qubits = 2;
  shots.traces.resize(4, IqTrace(8));
  shots.labels = {0, 1, 1, 0, 2, 2, 0, 0};

  const std::vector<std::size_t> all{0, 1, 2, 3};
  ReadoutEngine engine(constant_backend(2));
  const FidelityReport r = engine.evaluate(shots, all);
  // Qubit 0 truths: 0,1,2,0 -> correct 2 of the 0s, miss 1 and 2.
  EXPECT_EQ(r.per_qubit[0].counts[0][0], 2u);
  EXPECT_EQ(r.per_qubit[0].counts[1][0], 1u);
  EXPECT_EQ(r.per_qubit[0].counts[2][0], 1u);
  // Macro for qubit 0: (1 + 0 + 0) / 3.
  EXPECT_NEAR(r.per_qubit[0].macro_fidelity(), 1.0 / 3.0, 1e-12);
}

TEST(Metrics, MismatchedClassifierOutputThrows) {
  ShotSet shots;
  shots.n_qubits = 2;
  shots.traces.resize(1, IqTrace(4));
  shots.labels = {0, 0};
  // A one-qubit backend cannot score a two-qubit shot set.
  const std::vector<std::size_t> all{0};
  ReadoutEngine engine(constant_backend(1));
  EXPECT_THROW(engine.evaluate(shots, all), Error);
}

}  // namespace
}  // namespace mlqr
