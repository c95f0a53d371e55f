// Inference latency model for the dataflow NN engines.
//
// Fully-unrolled layers take one MAC cycle plus one activation/register
// stage; time-multiplexed layers take reuse_factor cycles per output pass.
// The proposed per-qubit head (45 -> 22 -> 11 -> 3, reuse 1) lands at 5
// pipeline cycles — the figure the paper reports at 1 GHz — while the FNN
// must fold 686 k MACs onto the DSP budget and ends up three orders of
// magnitude slower, which is why Table VI marks it "Slow".
#pragma once

#include <cstddef>
#include <vector>

#include "fpga/resource_model.h"

namespace mlqr {

/// Pipeline cycles for one NN instance described by its layer sizes.
std::size_t nn_latency_cycles(const std::vector<std::size_t>& layer_sizes,
                              const HlsConfig& cfg);

/// Latency of a whole design, assuming the per-qubit NNs of the proposed
/// architecture run in parallel (max, not sum) and matched filters overlap
/// with trace streaming (they add only a drain cycle).
std::size_t design_latency_cycles(const DesignSpec& spec);

}  // namespace mlqr
