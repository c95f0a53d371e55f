// Leakage-speculation demo: runs ERASER and ERASER+M on a distance-7
// rotated surface code and shows how multi-level readout quality changes
// speculation accuracy and residual leakage population (paper SSIII-B,
// SSVII-E).
//
//   ./leakage_speculation [distance] [cycles] [trials]
#include <cstdlib>
#include <iostream>

#include "common/env.h"
#include "common/table.h"
#include "qec/eraser.h"

int main(int argc, char** argv) {
  using namespace mlqr;

  const std::size_t distance = argc > 1 ? std::atoi(argv[1]) : 7;
  const std::size_t cycles = argc > 2 ? std::atoi(argv[2]) : 10;
  std::size_t trials = argc > 3 ? std::atoi(argv[3]) : 2000;
  trials = fast_scaled(trials, 10, 100);

  const SurfaceCode code(distance);
  const LeakageRates rates;

  std::cout << "Surface code d=" << distance << ": " << code.num_data()
            << " data qubits, " << code.num_stabilizers()
            << " stabilizers; " << cycles << " QEC cycles x " << trials
            << " trials\n\n";

  Table table("ERASER vs ERASER+M across multi-level readout quality");
  table.set_header({"Policy", "P(detect |2>)", "Spec. accuracy", "Recall",
                    "Leakage population", "LRC uses/trial"});

  // Syndrome-only baseline.
  {
    SpeculationStats s =
        run_eraser(code, rates, MultiLevelReadout{}, cycles, trials, 11);
    table.add_row({"ERASER", "-", Table::num(s.speculation_accuracy()),
                   Table::num(s.recall()),
                   Table::num(s.final_leakage_population, 5),
                   Table::num(static_cast<double>(s.lrc_applications) /
                                  static_cast<double>(trials),
                              1)});
  }

  // Multi-level readout at different detection qualities.
  for (double detect : {0.80, 0.90, 0.95, 0.99}) {
    MultiLevelReadout ml;
    ml.enabled = true;
    ml.p_detect_leaked = detect;
    ml.p_false_leaked = 0.01;
    SpeculationStats s = run_eraser(code, rates, ml, cycles, trials, 13);
    table.add_row({"ERASER+M", Table::num(detect, 2),
                   Table::num(s.speculation_accuracy()),
                   Table::num(s.recall()),
                   Table::num(s.final_leakage_population, 5),
                   Table::num(static_cast<double>(s.lrc_applications) /
                                  static_cast<double>(trials),
                              1)});
  }
  table.print();
  return 0;
}
