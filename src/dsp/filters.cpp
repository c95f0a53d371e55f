#include "dsp/filters.h"

#include "common/error.h"

namespace mlqr {

Complexd mean_trace_value(const BasebandTrace& trace) {
  MLQR_CHECK(!trace.empty());
  Complexd acc{0.0, 0.0};
  for (const Complexd& z : trace) acc += z;
  return acc / static_cast<double>(trace.size());
}

Complexd window_mean(const BasebandTrace& trace, std::size_t begin,
                     std::size_t end) {
  MLQR_CHECK_MSG(begin < end && end <= trace.size(),
                 "window [" << begin << ',' << end << ") out of trace size "
                            << trace.size());
  Complexd acc{0.0, 0.0};
  for (std::size_t t = begin; t < end; ++t) acc += trace[t];
  return acc / static_cast<double>(end - begin);
}

}  // namespace mlqr
