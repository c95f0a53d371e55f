// End-to-end smoke of the experiment harness at CI scale: the full
// simulate -> mine -> train -> score pipeline for the cheap designs.
#include "readout/experiment.h"

#include <gtest/gtest.h>

#include "common/env.h"

namespace mlqr {
namespace {

TEST(ExperimentSuite, RunsEndToEndAtSmallScale) {
  SuiteConfig cfg;
  // Small but not tiny: every qubit needs >= 2 mined |2> traces in the 30%
  // train split for the matched-filter banks to be constructible.
  cfg.dataset.shots_per_basis_state = 80;
  cfg.dataset.seed = 777;
  cfg.train_fnn = false;       // The heavy baselines have their own
  cfg.train_herqules = false;  // integration tests and benches.

  const SuiteResult result = run_suite(cfg);
  ASSERT_TRUE(result.proposed.has_value());
  ASSERT_TRUE(result.proposed_report.has_value());
  ASSERT_TRUE(result.lda_report.has_value());
  ASSERT_TRUE(result.qda_report.has_value());
  EXPECT_FALSE(result.fnn.has_value());

  EXPECT_GT(result.proposed_report->geometric_mean_fidelity(), 0.5);
  EXPECT_GT(result.lda_report->geometric_mean_fidelity(), 0.5);
  EXPECT_EQ(result.proposed_report->per_qubit.size(), 5u);
  EXPECT_GT(result.train_seconds_proposed, 0.0);
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
