// End-to-end experiment harness shared by benches and examples: generate
// (or accept) a dataset, train any subset of the discriminator designs,
// evaluate every trained design on the held-out test set against ground
// truth, and expose model metadata for the FPGA/power models.
#pragma once

#include <optional>
#include <string>
#include <vector>

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

  bool train_proposed = true;
  bool train_fnn = true;
  bool train_herqules = true;
  bool train_gaussian = true;

  SuiteConfig() {
    lda.kind = GaussianKind::kLda;
    qda.kind = GaussianKind::kQda;
  }

  /// Shrinks shot counts / epochs under MLQR_FAST=1 (CI mode).
  void apply_fast_mode();
};

/// Everything a bench needs to print a paper table.
struct SuiteResult {
  ReadoutDataset dataset;

  std::optional<ProposedDiscriminator> proposed;
  std::optional<FnnDiscriminator> fnn;
  std::optional<HerqulesDiscriminator> herqules;
  std::optional<GaussianShotDiscriminator> lda;
  std::optional<GaussianShotDiscriminator> qda;

  std::optional<FidelityReport> proposed_report;
  std::optional<FidelityReport> fnn_report;
  std::optional<FidelityReport> herqules_report;
  std::optional<FidelityReport> lda_report;
  std::optional<FidelityReport> qda_report;

  double train_seconds_proposed = 0.0;
  double train_seconds_fnn = 0.0;
  double train_seconds_herqules = 0.0;
};

/// Runs the full pipeline. Heavy: seconds to minutes depending on config.
SuiteResult run_suite(const SuiteConfig& cfg);

/// Evaluates one already-trained backend on a dataset's test split, batched
/// through ReadoutEngine — the single evaluation code path (run_suite, the
/// benches, and the tests all land here).
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
