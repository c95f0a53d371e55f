// SSIII-A: gate malfunction under control-qubit leakage (IBM Lagos
// leakage-injection experiments). Paper: ~3x leakage growth within 12
// CNOTs with a leaked control; 1.5-2% leakage transfer per CNOT+measure.
#include <iostream>

#include "common/env.h"
#include "common/table.h"
#include "qec/cnot_leakage.h"

int main() {
  using namespace mlqr;

  const CnotLeakageModel model;
  const std::size_t shots = fast_scaled(10000, 10, 500);

  const auto base = run_repeated_cnot(model, 12, shots, false, 1);
  const auto leak = run_repeated_cnot(model, 12, shots, true, 1);

  Table table("SSIII-A — target leakage vs repeated CNOTs (" +
              std::to_string(shots) + " shots)");
  table.set_header({"CNOTs", "control |1>", "control |2>", "ratio"});
  for (std::size_t g : {0u, 3u, 7u, 11u}) {
    const double b = base.target_leak_fraction[g];
    const double l = leak.target_leak_fraction[g];
    table.add_row({std::to_string(g + 1), Table::num(b, 4), Table::num(l, 4),
                   b > 0 ? Table::num(l / b, 2) + "x" : "-"});
  }
  table.print();

  CnotLeakageModel isolated = model;
  isolated.p_background = 0.0;
  const auto single = run_repeated_cnot(isolated, 1, shots * 4, true, 2);
  std::cout << "\nGrowth ratio after 12 CNOTs: "
            << Table::num(leak.target_leak_fraction.back() /
                              base.target_leak_fraction.back(),
                          2)
            << "x (paper: ~3x)\n"
            << "Single CNOT+measure transfer: "
            << Table::pct(single.target_leak_fraction.back())
            << " (paper: 1.5-2%)\n"
            << "Random bit flips with leaked control: "
            << Table::pct(leak.target_bitflip_fraction)
            << " of shots (paper: 'random bit flips')\n";
  return 0;
}
