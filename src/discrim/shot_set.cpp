#include "discrim/shot_set.h"

#include "common/error.h"
#include "common/parallel.h"

namespace mlqr {

int ShotSet::label(std::size_t shot, std::size_t qubit) const {
  MLQR_CHECK(shot < traces.size() && qubit < n_qubits);
  return labels[shot * n_qubits + qubit];
}

void ShotSet::validate() const {
  MLQR_CHECK(n_qubits > 0);
  MLQR_CHECK_MSG(labels.size() == traces.size() * n_qubits,
                 "ShotSet labels size " << labels.size() << " != "
                                        << traces.size() << " shots x "
                                        << n_qubits << " qubits");
  for (const IqTrace& t : traces) t.check_consistent();
}

std::vector<BasebandTrace> demodulate_subset(const ShotSet& shots,
                                             std::span<const std::size_t> subset,
                                             const Demodulator& demod,
                                             std::size_t qubit,
                                             std::size_t max_samples) {
  std::vector<BasebandTrace> out(subset.size());
  parallel_for(0, subset.size(), [&](std::size_t i) {
    MLQR_CHECK(subset[i] < shots.size());
    out[i] = demod.demodulate(shots.traces[subset[i]], qubit, max_samples);
  });
  return out;
}

}  // namespace mlqr
