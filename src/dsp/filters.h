// Trace condensation filters (paper SSII-A "Filtering").
#pragma once

#include <cstddef>

#include "sim/iq.h"

namespace mlqr {

/// Mean Trace Value: the temporal mean of a (baseband) trace,
/// MTV = (1/len) * sum_t Tr(t) — one complex point per trace (paper SSV-A).
Complexd mean_trace_value(const BasebandTrace& trace);

/// Mean over the sub-window [begin, end) — the error-trace miner compares
/// early- and late-window means to spot mid-trace transitions.
Complexd window_mean(const BasebandTrace& trace, std::size_t begin,
                     std::size_t end);

}  // namespace mlqr
