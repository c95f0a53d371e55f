// End-to-end smoke of the experiment harness at CI scale: the full
// simulate -> mine -> train -> score pipeline for the cheap designs.
#include "readout/experiment.h"

#include <gtest/gtest.h>

#include "common/env.h"

namespace mlqr {
namespace {

// One suite for every case, so the dataset is generated and each design
// trained once per test binary, as in the driver.
ExperimentSuite& small_suite() {
  static ExperimentSuite suite([] {
    SuiteConfig cfg;
    // Small but not tiny: every qubit needs >= 2 mined |2> traces in the
    // 30% train split for the matched-filter banks to be constructible.
    cfg.dataset.shots_per_basis_state = 80;
    cfg.dataset.seed = 777;
    return cfg;
  }());
  return suite;
}

TEST(ExperimentSuite, RunsEndToEndAtSmallScale) {
  // Only the cheap designs are asked for: the heavy baselines have their
  // own integration tests, and the suite trains nothing it is not asked for.
  ExperimentSuite& suite = small_suite();
  const auto& proposed = suite.proposed();
  const auto& lda = suite.lda();
  const auto& qda = suite.qda();

  EXPECT_GT(proposed.report.geometric_mean_fidelity(), 0.5);
  EXPECT_GT(lda.report.geometric_mean_fidelity(), 0.5);
  EXPECT_GT(qda.report.geometric_mean_fidelity(), 0.0);
  EXPECT_EQ(proposed.report.per_qubit.size(), 5u);
  EXPECT_GT(proposed.train_seconds, 0.0);
  EXPECT_EQ(suite.dataset().shots.size(),
            suite.config().dataset.shots_per_basis_state * 32);
}

TEST(ExperimentSuite, TrainsEachDesignOnce) {
  ExperimentSuite& suite = small_suite();
  const Trained<ProposedDiscriminator>& first = suite.proposed();
  const double seconds = first.train_seconds;
  const Trained<ProposedDiscriminator>& again = suite.proposed();
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(&first.model, &again.model);
  EXPECT_EQ(again.train_seconds, seconds);
  EXPECT_EQ(&suite.lda(), &suite.lda());
}

TEST(ExperimentSuite, FastModeShrinksWork) {
  SuiteConfig cfg;
  cfg.dataset.shots_per_basis_state = 6000;
  const int fnn_epochs = cfg.fnn.trainer.epochs;
  cfg.apply_fast_mode();
  if (fast_mode()) {
    EXPECT_LT(cfg.dataset.shots_per_basis_state, 6000u);
    EXPECT_LT(cfg.fnn.trainer.epochs, fnn_epochs);
  } else {
    EXPECT_EQ(cfg.dataset.shots_per_basis_state, 6000u);
  }
}

}  // namespace
}  // namespace mlqr
