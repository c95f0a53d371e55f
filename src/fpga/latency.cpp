#include "fpga/latency.h"

#include <algorithm>

#include "common/error.h"

namespace mlqr {

std::size_t nn_latency_cycles(const std::vector<std::size_t>& sizes,
                              const HlsConfig& cfg) {
  MLQR_CHECK(sizes.size() >= 2);
  std::size_t cycles = 0;
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    // MAC stage: one cycle fully unrolled, else reuse_factor passes.
    cycles += static_cast<std::size_t>(cfg.reuse_factor);
    // Activation/register stage between layers (none after the last).
    if (l + 2 < sizes.size()) ++cycles;
  }
  // Output argmax/register stage.
  cycles += 1;
  return cycles;
}

std::size_t design_latency_cycles(const DesignSpec& spec) {
  std::size_t worst_nn = 0;
  for (const auto& sizes : spec.nns)
    worst_nn = std::max(worst_nn, nn_latency_cycles(sizes, spec.hls));
  // Matched filters stream alongside the trace; their accumulator drains in
  // one cycle, and demodulation adds one pipeline stage.
  const std::size_t front_end =
      (spec.matched_filters > 0 ? 1 : 0) + (spec.demod_channels > 0 ? 1 : 0);
  return front_end + worst_nn;
}

}  // namespace mlqr
