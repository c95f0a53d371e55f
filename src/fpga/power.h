// First-order ASIC power model at 45 nm (paper SSVII-D).
//
// Stand-in for the Synopsys Design Compiler + 45 nm TSMC flow: dynamic
// power from energy-per-MAC at the achieved MAC throughput, static power
// from leakage over the synthesized gate count. The energy/MAC constant is
// calibrated so the proposed design (1,265 8-bit MACs, 5-cycle pipeline,
// 1 GHz) lands near the paper's 1.561 mW; every other design is then a
// prediction of the same model, at the same operating point: 1 GHz, 45 nm,
// 8-bit MACs, busy every cycle.
#pragma once

#include <cstddef>

#include "fpga/resource_model.h"

namespace mlqr {

struct PowerEstimate {
  double dynamic_mw = 0.0;
  double static_mw = 0.0;
  double total_mw() const { return dynamic_mw + static_mw; }
};

/// Power for a design given its NN MAC workload and pipeline depth.
PowerEstimate estimate_power(const DesignSpec& spec,
                             std::size_t latency_cycles);

/// Energy of a single MAC (J) at the given precision/technology.
double mac_energy_joules(int bits, double tech_nm);

}  // namespace mlqr
