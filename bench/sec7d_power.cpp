// SSVII-D: ASIC power at 45 nm. Paper: the proposed per-qubit inference
// module needs 1.561 mW total at 1 GHz with a 5-cycle latency.
#include <iostream>

#include "common/table.h"
#include "fpga/latency.h"
#include "fpga/power.h"
#include "readout/design_presets.h"

int main() {
  using namespace mlqr;

  DesignSpec head = proposed_design_spec(5, 3, 500);
  head.name = "OURS (per-qubit head)";
  head.nns.resize(1);
  head.demod_channels = 0;
  head.matched_filters = 0;

  const DesignSpec designs[] = {
      head,
      proposed_design_spec(5, 3, 500),
      herqules_design_spec(5, 3, 500),
      fnn_design_spec(5, 3, 500),
  };

  Table table("SSVII-D — 45 nm ASIC power at 1 GHz");
  table.set_header({"Design", "NN MACs", "Latency (cyc)", "Dynamic (mW)",
                    "Static (mW)", "Total (mW)"});
  for (const DesignSpec& spec : designs) {
    const std::size_t cycles = design_latency_cycles(spec);
    const PowerEstimate p = estimate_power(spec, cycles);
    table.add_row({spec.name, std::to_string(spec.total_nn_parameters()),
                   std::to_string(cycles), Table::num(p.dynamic_mw, 3),
                   Table::num(p.static_mw, 3), Table::num(p.total_mw(), 3)});
  }
  table.print();
  std::cout << "\nPaper reference point: 1.561 mW at 1 GHz, 5-cycle latency "
               "(per-qubit module, 45 nm TSMC, Synopsys DC).\n";
  return 0;
}
