// End-to-end experiment harness shared by the reproduction driver, the
// examples and the tests: one generated dataset, each discriminator design
// trained on it at most once (the first time a caller asks), every trained
// design evaluated on the held-out test set against ground truth.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "discrim/fnn_baseline.h"
#include "discrim/gaussian_discriminator.h"
#include "discrim/herqules_baseline.h"
#include "discrim/metrics.h"
#include "discrim/proposed.h"
#include "pipeline/readout_engine.h"
#include "readout/dataset.h"

namespace mlqr {

struct SuiteConfig {
  DatasetConfig dataset;
  ProposedConfig proposed;
  FnnConfig fnn;
  HerqulesConfig herqules;
  GaussianDiscriminatorConfig lda;
  GaussianDiscriminatorConfig qda;

  SuiteConfig() {
    lda.kind = GaussianKind::kLda;
    qda.kind = GaussianKind::kQda;
  }

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
  const Trained<FnnDiscriminator>& fnn();
  const Trained<HerqulesDiscriminator>& herqules();
  const Trained<GaussianShotDiscriminator>& lda();
  const Trained<GaussianShotDiscriminator>& qda();

  /// Trains a variant of the proposed design on the suite's dataset. The
  /// suite does not keep it: a caller that needs it twice holds on to it.
  Trained<ProposedDiscriminator> train_proposed(const std::string& name,
                                                const ProposedConfig& cfg) const;

 private:
  template <class D, class Cfg>
  Trained<D> train(const std::string& name, const Cfg& cfg) const;
  /// Trains into `slot` unless it already holds the design.
  template <class D, class Cfg>
  const Trained<D>& once(std::optional<Trained<D>>& slot,
                         const std::string& name, const Cfg& cfg);

  SuiteConfig cfg_;
  ReadoutDataset dataset_;
  std::optional<Trained<ProposedDiscriminator>> proposed_;
  std::optional<Trained<FnnDiscriminator>> fnn_;
  std::optional<Trained<HerqulesDiscriminator>> herqules_;
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

/// |2>-detection statistics of a report's ancilla-relevant qubits, averaged:
/// {P(read 2 | true 2), P(read 2 | true computational)} — feeds ERASER+M.
std::pair<double, double> leak_detection_rates(const FidelityReport& report);

}  // namespace mlqr
