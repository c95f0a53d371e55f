// Table I: impact of multi-level readout on leakage speculation.
// Paper: ERASER accuracy 0.957 / leakage population 4.19e-3;
//        ERASER+M accuracy 0.971 / leakage population 2.97e-3
// (d = 7 surface code, 10 QEC cycles).
#include <iostream>

#include "common/env.h"
#include "common/table.h"
#include "qec/eraser.h"

int main() {
  using namespace mlqr;

  const SurfaceCode code(7);
  const LeakageRates rates;
  const std::size_t cycles = 10;
  const std::size_t trials = fast_scaled(4000, 10, 200);

  EraserConfig base_cfg;
  const SpeculationStats base = run_eraser(code, rates, MultiLevelReadout{},
                                           base_cfg, cycles, trials, 2027);

  EraserConfig ml_cfg;
  ml_cfg.multi_level = true;
  MultiLevelReadout ml;
  ml.p_detect_leaked = 0.93;  // Three-level readout of the proposed design.
  ml.p_false_leaked = 0.01;
  const SpeculationStats with_ml =
      run_eraser(code, rates, ml, ml_cfg, cycles, trials, 2027);

  Table table("Table I — impact of readout on leakage speculation (d=7, 10 cycles)");
  table.set_header({"Design", "Accuracy", "Leakage population"});
  table.add_row({"ERASER (paper)", "0.957", "4.19e-3"});
  table.add_row({"ERASER", Table::num(base.speculation_accuracy(), 3),
                 Table::num(base.final_leakage_population * 1e3, 2) + "e-3"});
  table.add_row({"ERASER+M (paper)", "0.971", "2.97e-3"});
  table.add_row({"ERASER+M", Table::num(with_ml.speculation_accuracy(), 3),
                 Table::num(with_ml.final_leakage_population * 1e3, 2) +
                     "e-3"});
  table.print();

  std::cout << "\nLP improvement: "
            << Table::num(base.final_leakage_population /
                              with_ml.final_leakage_population,
                          2)
            << "x (paper: ~1.5x); LRC applications per trial: ERASER "
            << base.lrc_applications / trials << ", ERASER+M "
            << with_ml.lrc_applications / trials << "\n";
  return 0;
}
