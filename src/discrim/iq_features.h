// Condensed IQ-plane features for classical (non-NN) discriminators.
//
// The standard single-qubit pipeline condenses a demodulated trace to its
// Mean Trace Value — one point in the IQ plane (2 real features), the
// form the paper's LDA/QDA baselines use.
#pragma once

#include <vector>

#include "sim/iq.h"

namespace mlqr {

/// MTV as a 2-vector {Re, Im}.
std::vector<double> mtv_features(const BasebandTrace& trace);

}  // namespace mlqr
