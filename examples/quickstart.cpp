// Quickstart: generate a synthetic five-qubit readout dataset, mine natural
// leakage with spectral clustering, train the proposed matched-filter +
// modular-NN discriminator, print per-qubit three-level fidelities, then
// stream the test split back through the batched ReadoutEngine to show the
// deployment-shaped inference path (shots/sec, p50/p99 latency).
//
//   ./quickstart [shots_per_basis_state]
//
// With MLQR_FAST=1 the run shrinks to CI scale.
#include <cstdlib>
#include <iostream>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/table.h"
#include "pipeline/readout_engine.h"
#include "readout/experiment.h"

int main(int argc, char** argv) {
  using namespace mlqr;

  SuiteConfig cfg;
  cfg.dataset.shots_per_basis_state = argc > 1 ? std::atoi(argv[1]) : 400;
  ExperimentSuite suite(cfg);
  const ReadoutDataset& ds = suite.dataset();
  // Only the cheap designs (proposed, LDA, QDA) are asked for, so only
  // they train; bench/reproduce trains the baselines too.
  const Trained<ProposedDiscriminator>& proposed = suite.proposed();
  const FidelityReport& lda = suite.lda().report;
  const FidelityReport& qda = suite.qda().report;

  Table table("Quickstart: three-level readout fidelity (proposed design)");
  table.set_header({"Qubit", "F (macro)", "P(0|0)", "P(1|1)", "P(2|2)",
                    "mined |2> traces", "label acc"});
  const FidelityReport& report = proposed.report;
  for (std::size_t q = 0; q < report.per_qubit.size(); ++q) {
    const QubitConfusion& c = report.per_qubit[q];
    table.add_row({std::string("Q").append(std::to_string(q + 1)),
                   Table::num(c.macro_fidelity()),
                   Table::num(c.per_level_accuracy(0)),
                   Table::num(c.per_level_accuracy(1)),
                   Table::num(c.per_level_accuracy(2)),
                   std::to_string(ds.mined_leakage_per_qubit[q]),
                   Table::num(ds.label_accuracy_per_qubit[q])});
  }
  table.print();
  std::cout << "\nF5Q (geometric mean) = "
            << Table::num(report.geometric_mean_fidelity()) << '\n'
            << "LDA F5Q = "
            << Table::num(lda.geometric_mean_fidelity())
            << ", QDA F5Q = " << Table::num(qda.geometric_mean_fidelity())
            << '\n'
            << "NN parameters (all 5 heads): "
            << proposed.model.parameter_count() << '\n';

  // Streaming inference through the batched engine: the same trained model
  // behind the process_batch API every deployment path uses. Two passes:
  // the whole test split as one batch for throughput, then one
  // batch-of-1 call per shot (the QEC-cycle serving shape) for the
  // per-shot latency percentiles.
  ReadoutEngine engine(make_backend(proposed.model));
  const EngineBatch batch = engine.process_batch(ds.shots, ds.test_idx);
  std::vector<double> micros;
  micros.reserve(ds.test_idx.size());
  for (const std::size_t& idx : ds.test_idx)
    micros.push_back(engine.process_batch(ds.shots, {&idx, 1}).wall_seconds *
                     1e6);
  const LatencyStats lat = summarize_latency(std::move(micros));
  std::cout << "\nReadoutEngine (" << engine.backend().name() << ", "
            << parallel_thread_count() << " worker cap): " << batch.n_shots
            << " shots in " << batch.wall_seconds << " s = "
            << static_cast<std::size_t>(batch.shots_per_second())
            << " shots/s; per-shot p50 " << lat.p50_us << " us, p99 "
            << lat.p99_us << " us\n";
  return 0;
}
