#include "fpga/power.h"

#include <cmath>

#include "common/error.h"

namespace mlqr {

namespace {
// Calibrated so the proposed design reproduces the paper's 1.561 mW
// operating point (see header). 45 nm, 8-bit MAC.
constexpr double kBaseMacEnergyJ = 5.0e-15;   // 5 fJ at 8 bits / 45 nm.
constexpr double kLeakagePerGateW = 0.58e-9;  // 0.58 nW/gate at 45 nm.
constexpr double kGatesPerMacBit = 52.0;      // NAND2-equivalents per MAC bit.
// The modelled operating point (see header).
constexpr double kClockHz = 1e9;
constexpr int kMacBits = 8;
constexpr double kTechNm = 45.0;
}  // namespace

double mac_energy_joules(int bits, double tech_nm) {
  MLQR_CHECK(bits >= 2 && tech_nm > 0.0);
  // Energy scales ~quadratically with multiplier width and ~linearly with
  // feature size at these nodes.
  const double bit_scale = std::pow(static_cast<double>(bits) / 8.0, 1.6);
  const double tech_scale = tech_nm / 45.0;
  return kBaseMacEnergyJ * bit_scale * tech_scale;
}

PowerEstimate estimate_power(const DesignSpec& spec,
                             std::size_t latency_cycles) {
  MLQR_CHECK(latency_cycles > 0);
  const double macs = static_cast<double>(spec.total_nn_parameters());
  // One inference consumes ~`macs` MAC operations over `latency_cycles`
  // cycles; busy every cycle, the engine sustains macs/latency per cycle.
  const double macs_per_second =
      macs / static_cast<double>(latency_cycles) * kClockHz;

  PowerEstimate p;
  p.dynamic_mw =
      macs_per_second * mac_energy_joules(kMacBits, kTechNm) * 1e3;
  const double gates = macs * kMacBits * kGatesPerMacBit;
  p.static_mw = gates * kLeakagePerGateW * 1e3;
  return p;
}

}  // namespace mlqr
