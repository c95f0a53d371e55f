// End-to-end experiment harness shared by the reproduction driver, the
// examples and the tests: one generated dataset, each discriminator design
// trained on it at most once (the first time a caller asks), every trained
// design evaluated on the held-out test set against ground truth.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "discrim/gaussian_discriminator.h"
#include "discrim/joint_head.h"
#include "discrim/metrics.h"
#include "discrim/proposed.h"
#include "pipeline/readout_engine.h"
#include "readout/dataset.h"

namespace mlqr {

struct SuiteConfig {
  DatasetConfig dataset;
  ProposedConfig proposed;
  JointHeadConfig fnn = JointHeadConfig::fnn();
  JointHeadConfig herqules = JointHeadConfig::herqules();

  /// Shrinks shot counts and the baselines' epochs under MLQR_FAST=1 (CI
  /// mode). The proposed design keeps its full epoch count.
  void apply_fast_mode();
};

/// A trained design with its test-split report and its training time.
template <class D>
struct Trained {
  D model;
  FidelityReport report;
  double train_seconds = 0.0;
};

/// Owns one dataset, generated at construction from the fast-adjusted
/// config, and trains each design the first time it is asked for; later
/// calls return the same object. Heavy: seconds to minutes per design.
class ExperimentSuite {
 public:
  explicit ExperimentSuite(SuiteConfig cfg);
  ExperimentSuite(const ExperimentSuite&) = delete;
  ExperimentSuite& operator=(const ExperimentSuite&) = delete;

  /// The config after SuiteConfig::apply_fast_mode.
  const SuiteConfig& config() const { return cfg_; }
  const ReadoutDataset& dataset() const { return dataset_; }

  const Trained<ProposedDiscriminator>& proposed();
  const Trained<JointHeadDiscriminator>& fnn();
  const Trained<JointHeadDiscriminator>& herqules();
  const Trained<GaussianShotDiscriminator>& lda();
  const Trained<GaussianShotDiscriminator>& qda();

  /// Trains a design (a variant of a suite design, or an ablation) on the
  /// suite's dataset, evaluates it on the test split and logs it under
  /// `name`. The suite does not keep it: a caller that needs it twice holds
  /// on to it. D is ProposedDiscriminator or JointHeadDiscriminator, with
  /// its config.
  template <class D, class Cfg>
  Trained<D> train(const std::string& name, const Cfg& cfg) const;

 private:
  /// Trains into `slot` unless it already holds the design.
  template <class D, class Cfg>
  const Trained<D>& once(std::optional<Trained<D>>& slot,
                         const std::string& name, const Cfg& cfg);

  SuiteConfig cfg_;
  ReadoutDataset dataset_;
  std::optional<Trained<ProposedDiscriminator>> proposed_;
  std::optional<Trained<JointHeadDiscriminator>> fnn_;
  std::optional<Trained<JointHeadDiscriminator>> herqules_;
  std::optional<Trained<GaussianShotDiscriminator>> lda_;
  std::optional<Trained<GaussianShotDiscriminator>> qda_;
};

/// Evaluates one already-trained backend on a dataset's test split, batched
/// through ReadoutEngine — the single evaluation code path (the suite, the
/// driver, and the tests all land here).
FidelityReport evaluate_on_test(const EngineBackend& backend,
                                const ReadoutDataset& ds);

/// Convenience for any ReadoutBackend discriminator: wraps it (non-owning)
/// and routes through the EngineBackend path above.
template <ReadoutBackend D>
FidelityReport evaluate_on_test(const D& d, const ReadoutDataset& ds) {
  return evaluate_on_test(make_backend(d), ds);
}

/// |2>-detection statistics averaged over every qubit whose report holds
/// both true-|2> and true-computational shots: {P(read 2 | true 2),
/// P(read 2 | true computational)} — feeds ERASER+M. No qubit is excluded.
/// With no such qubit, {1, 0}.
std::pair<double, double> leak_detection_rates(const FidelityReport& report);

}  // namespace mlqr
