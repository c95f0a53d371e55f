// FPGA deployment planner: estimates LUT/FF/BRAM/DSP, latency, and 45 nm
// ASIC power for the three readout architectures on the paper's target
// device (xczu7ev), and reports whether each design fits.
//
//   ./fpga_planner [n_qubits] [n_levels]
#include <cstdlib>
#include <iostream>

#include "common/table.h"
#include "fpga/latency.h"
#include "fpga/power.h"
#include "readout/design_presets.h"

int main(int argc, char** argv) {
  using namespace mlqr;

  const std::size_t n_qubits = argc > 1 ? std::atoi(argv[1]) : 5;
  const int n_levels = argc > 2 ? std::atoi(argv[2]) : 3;
  const std::size_t kernel_len = 500;
  const FpgaDevice device = FpgaDevice::xczu7ev();

  const DesignSpec designs[] = {
      proposed_design_spec(n_qubits, n_levels, kernel_len),
      herqules_design_spec(n_qubits, n_levels, kernel_len),
      fnn_design_spec(n_qubits, n_levels, kernel_len),
      fnn_folded_design_spec(n_qubits, n_levels, kernel_len, device),
  };

  std::cout << "Device: " << device.name << " (" << device.luts << " LUT, "
            << device.ffs << " FF, " << device.bram36 << " BRAM36, "
            << device.dsps << " DSP)\n\n";

  Table table("Readout discriminators on " + device.name);
  table.set_header({"Design", "NN params", "LUT%", "FF%", "BRAM%", "DSP%",
                    "Fits", "Latency (cyc)", "Power (mW)"});
  for (const DesignSpec& spec : designs) {
    const ResourceEstimate est = estimate_design(spec);
    const Utilization util = utilization(est, device);
    const std::size_t cycles = design_latency_cycles(spec);
    const PowerEstimate power = estimate_power(spec, cycles);
    table.add_row({spec.name, std::to_string(spec.total_nn_parameters()),
                   Table::pct(util.lut), Table::pct(util.ff),
                   Table::pct(util.bram), Table::pct(util.dsp),
                   util.fits() ? "yes" : "NO",
                   std::to_string(cycles),
                   Table::num(power.total_mw(), 3)});
  }
  table.print();
  return 0;
}
