#include "discrim/iq_features.h"

#include "dsp/filters.h"

namespace mlqr {

std::vector<double> mtv_features(const BasebandTrace& trace) {
  const Complexd m = mean_trace_value(trace);
  return {m.real(), m.imag()};
}

}  // namespace mlqr
