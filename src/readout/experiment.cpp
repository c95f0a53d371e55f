#include "readout/experiment.h"

#include <iostream>

#include "common/env.h"
#include "common/timer.h"

namespace mlqr {

void SuiteConfig::apply_fast_mode() {
  if (!fast_mode()) return;
  dataset.shots_per_basis_state =
      fast_scaled(dataset.shots_per_basis_state, 6, 60);
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

ExperimentSuite::ExperimentSuite(SuiteConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.apply_fast_mode();
  Timer timer;
  std::cout << "[suite] generating dataset: "
            << cfg_.dataset.shots_per_basis_state << " shots x "
            << (std::size_t{1} << cfg_.dataset.chip.num_qubits())
            << " basis states...\n";
  dataset_ = generate_dataset(cfg_.dataset);
  std::cout << "[suite] dataset ready in " << timer.seconds() << " s ("
            << dataset_.shots.size() << " shots); mined |2> traces per qubit:";
  for (std::size_t c : dataset_.mined_leakage_per_qubit) std::cout << ' ' << c;
  std::cout << '\n';
}

template <class D, class Cfg>
Trained<D> ExperimentSuite::train(const std::string& name,
                                  const Cfg& cfg) const {
  const ReadoutDataset& ds = dataset_;
  Timer timer;
  D model = D::train(ds.shots, ds.training_labels, ds.train_idx, ds.chip, cfg);
  const double seconds = timer.seconds();
  FidelityReport report = evaluate_on_test(make_backend(model), ds);
  std::cout << "[suite] " << name << " trained in " << seconds
            << " s, F5Q = " << report.geometric_mean_fidelity() << '\n';
  return {std::move(model), std::move(report), seconds};
}

// train is defined here, so it is instantiated here for its callers.
template Trained<ProposedDiscriminator>
ExperimentSuite::train<ProposedDiscriminator>(const std::string&,
                                              const ProposedConfig&) const;
template Trained<JointHeadDiscriminator>
ExperimentSuite::train<JointHeadDiscriminator>(const std::string&,
                                               const JointHeadConfig&) const;

template <class D, class Cfg>
const Trained<D>& ExperimentSuite::once(std::optional<Trained<D>>& slot,
                                        const std::string& name,
                                        const Cfg& cfg) {
  if (!slot) slot.emplace(train<D>(name, cfg));
  return *slot;
}

const Trained<ProposedDiscriminator>& ExperimentSuite::proposed() {
  return once(proposed_, "proposed", cfg_.proposed);
}
const Trained<JointHeadDiscriminator>& ExperimentSuite::fnn() {
  return once(fnn_, "FNN", cfg_.fnn);
}
const Trained<JointHeadDiscriminator>& ExperimentSuite::herqules() {
  return once(herqules_, "HERQULES", cfg_.herqules);
}
const Trained<GaussianShotDiscriminator>& ExperimentSuite::lda() {
  return once(lda_, "LDA", GaussianKind::kLda);
}
const Trained<GaussianShotDiscriminator>& ExperimentSuite::qda() {
  return once(qda_, "QDA", GaussianKind::kQda);
}

}  // namespace mlqr
