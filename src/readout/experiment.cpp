#include "readout/experiment.h"

#include <iostream>

#include "common/env.h"
#include "common/timer.h"

namespace mlqr {

void SuiteConfig::apply_fast_mode() {
  if (!fast_mode()) return;
  dataset.shots_per_basis_state =
      fast_scaled(dataset.shots_per_basis_state, 6, 60);
  proposed.trainer.epochs = std::max(8, proposed.trainer.epochs / 4);
  fnn.trainer.epochs = std::max(2, fnn.trainer.epochs / 3);
  herqules.trainer.epochs = std::max(4, herqules.trainer.epochs / 4);
}

FidelityReport evaluate_on_test(const EngineBackend& backend,
                                const ReadoutDataset& ds) {
  ReadoutEngine engine(backend);
  return engine.evaluate(ds.shots, ds.test_idx);
}

std::pair<double, double> leak_detection_rates(const FidelityReport& report) {
  double detect = 0.0, false_pos = 0.0;
  std::size_t n = 0;
  for (const QubitConfusion& c : report.per_qubit) {
    const std::size_t leaked = c.row_total(2);
    const std::size_t comp = c.row_total(0) + c.row_total(1);
    if (leaked == 0 || comp == 0) continue;
    detect += static_cast<double>(c.counts[2][2]) /
              static_cast<double>(leaked);
    false_pos += static_cast<double>(c.counts[0][2] + c.counts[1][2]) /
                 static_cast<double>(comp);
    ++n;
  }
  if (n == 0) return {1.0, 0.0};
  return {detect / static_cast<double>(n), false_pos / static_cast<double>(n)};
}

SuiteResult run_suite(const SuiteConfig& cfg_in) {
  SuiteConfig cfg = cfg_in;
  cfg.apply_fast_mode();

  SuiteResult result;
  Timer timer;
  std::cout << "[suite] generating dataset: "
              << cfg.dataset.shots_per_basis_state << " shots x "
              << (std::size_t{1} << cfg.dataset.chip.num_qubits())
              << " basis states...\n";
  result.dataset = generate_dataset(cfg.dataset);
  const ReadoutDataset& ds = result.dataset;
  std::cout << "[suite] dataset ready in " << timer.seconds() << " s ("
            << ds.shots.size() << " shots); mined |2> traces per qubit:";
  for (std::size_t c : ds.mined_leakage_per_qubit) std::cout << ' ' << c;
  std::cout << '\n';

  const ChipProfile& chip = ds.chip;
  const std::vector<int>& labels = ds.training_labels;

  if (cfg.train_proposed) {
    timer.reset();
    result.proposed = ProposedDiscriminator::train(ds.shots, labels,
                                                   ds.train_idx, chip,
                                                   cfg.proposed);
    result.train_seconds_proposed = timer.seconds();
    result.proposed_report = evaluate_on_test(make_backend(*result.proposed), ds);
    std::cout << "[suite] proposed trained in "
                << result.train_seconds_proposed << " s, F5Q = "
                << result.proposed_report->geometric_mean_fidelity() << '\n';
  }
  if (cfg.train_fnn) {
    timer.reset();
    result.fnn =
        FnnDiscriminator::train(ds.shots, labels, ds.train_idx, chip, cfg.fnn);
    result.train_seconds_fnn = timer.seconds();
    result.fnn_report = evaluate_on_test(make_backend(*result.fnn), ds);
    std::cout << "[suite] FNN trained in " << result.train_seconds_fnn
                << " s, F5Q = "
                << result.fnn_report->geometric_mean_fidelity() << '\n';
  }
  if (cfg.train_herqules) {
    timer.reset();
    result.herqules = HerqulesDiscriminator::train(ds.shots, labels,
                                                   ds.train_idx, chip,
                                                   cfg.herqules);
    result.train_seconds_herqules = timer.seconds();
    result.herqules_report =
        evaluate_on_test(make_backend(*result.herqules), ds);
    std::cout << "[suite] HERQULES trained in "
                << result.train_seconds_herqules << " s, F5Q = "
                << result.herqules_report->geometric_mean_fidelity() << '\n';
  }
  if (cfg.train_gaussian) {
    result.lda = GaussianShotDiscriminator::train(ds.shots, labels,
                                                  ds.train_idx, chip, cfg.lda);
    result.lda_report = evaluate_on_test(make_backend(*result.lda), ds);
    result.qda = GaussianShotDiscriminator::train(ds.shots, labels,
                                                  ds.train_idx, chip, cfg.qda);
    result.qda_report = evaluate_on_test(make_backend(*result.qda), ds);
    std::cout << "[suite] LDA F5Q = "
                << result.lda_report->geometric_mean_fidelity()
                << ", QDA F5Q = "
                << result.qda_report->geometric_mean_fidelity() << '\n';
  }
  return result;
}

}  // namespace mlqr
