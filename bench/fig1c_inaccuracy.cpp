// Fig 1(c): readout classification inaccuracy (1 - F) over all five qubits
// for HERQULES, FNN, and the proposed design.
#include <iostream>

#include "bench_util.h"
#include "common/csv.h"

int main() {
  using namespace mlqr;
  using namespace mlqr::bench;

  SuiteConfig cfg;
  cfg.dataset.shots_per_basis_state = default_shots_per_state();
  cfg.train_gaussian = false;

  const SuiteResult result = run_suite(cfg);

  Table table("Fig 1(c) — classification inaccuracy (1 - F) per qubit");
  std::vector<std::string> header{"Design"};
  for (int q = 1; q <= 5; ++q)
    header.push_back(std::string("Q").append(std::to_string(q)));
  table.set_header(header);

  CsvWriter csv("fig1c_inaccuracy.csv");
  csv.write_row(std::vector<std::string>{"design", "qubit", "inaccuracy"});
  auto add = [&](const std::string& name, const FidelityReport& r) {
    std::vector<std::string> row{name};
    for (std::size_t q = 0; q < 5; ++q) {
      const double inacc = 1.0 - r.qubit_fidelity(q);
      row.push_back(Table::num(inacc));
      csv.write_row(std::vector<std::string>{name, std::to_string(q + 1),
                                             Table::num(inacc)});
    }
    table.add_row(std::move(row));
  };
  add("HERQULES", *result.herqules_report);
  add("FNN", *result.fnn_report);
  add("OURS", *result.proposed_report);
  table.print();
  std::cout << "\nSeries written to fig1c_inaccuracy.csv\n"
            << "Paper shape: HERQULES >> FNN ~ OURS, with OURS lowest "
               "overall.\n";
  return 0;
}
