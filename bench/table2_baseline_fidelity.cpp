// Table II: three-level readout fidelity of the existing state-of-the-art
// designs (FNN and HERQULES). Paper: FNN F5Q 0.898, HERQULES 0.591 — the
// joint 243-way HERQULES head collapses at three levels.
#include <iostream>

#include "bench_util.h"

int main() {
  using namespace mlqr;
  using namespace mlqr::bench;

  SuiteConfig cfg;
  cfg.dataset.shots_per_basis_state = default_shots_per_state();
  cfg.train_proposed = false;
  cfg.train_gaussian = false;

  const SuiteResult result = run_suite(cfg);

  Table table("Table II — three-level fidelity of existing designs");
  table.set_header(fidelity_header(5));
  add_paper_row(table, "FNN", {0.967, 0.728, 0.927, 0.932, 0.962, 0.898});
  add_fidelity_row(table, "FNN", *result.fnn_report);
  add_paper_row(table, "HERQULES",
                {0.598, 0.549, 0.608, 0.607, 0.594, 0.591});
  add_fidelity_row(table, "HERQULES", *result.herqules_report);
  table.print();

  std::cout << "\nHERQULES joint-head 243-way output vs per-qubit macro "
               "fidelity: the |2> level has almost no joint-class training "
               "support, so its per-level recall collapses.\n"
               "Deviation from the paper: both baselines train on ~100x "
               "fewer traces than its 1.6M, and to compensate weight their "
               "joint classes by capped inverse frequency (cap 64), which "
               "the paper's baselines do not.\n";
  return 0;
}
