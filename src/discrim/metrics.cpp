#include "discrim/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mlqr {

void QubitConfusion::add(int true_level, int assigned) {
  MLQR_CHECK(true_level >= 0 && true_level < kNumLevels);
  MLQR_CHECK(assigned >= 0 && assigned < kNumLevels);
  ++counts[true_level][assigned];
}

std::size_t QubitConfusion::row_total(int true_level) const {
  MLQR_CHECK(true_level >= 0 && true_level < kNumLevels);
  std::size_t n = 0;
  for (std::size_t c : counts[true_level]) n += c;
  return n;
}

double QubitConfusion::per_level_accuracy(int level) const {
  const std::size_t n = row_total(level);
  if (n == 0) return 1.0;
  return static_cast<double>(counts[level][level]) / static_cast<double>(n);
}

double QubitConfusion::macro_fidelity() const {
  double acc = 0.0;
  int present = 0;
  for (int l = 0; l < kNumLevels; ++l) {
    if (row_total(l) == 0) continue;
    acc += per_level_accuracy(l);
    ++present;
  }
  MLQR_CHECK_MSG(present > 0, "confusion matrix is empty");
  return acc / present;
}

double FidelityReport::qubit_fidelity(std::size_t q) const {
  MLQR_CHECK(q < per_qubit.size());
  return per_qubit[q].macro_fidelity();
}

double FidelityReport::geometric_mean_fidelity() const {
  MLQR_CHECK(!per_qubit.empty());
  double log_acc = 0.0;
  for (const QubitConfusion& c : per_qubit)
    log_acc += std::log(std::max(c.macro_fidelity(), 1e-12));
  return std::exp(log_acc / static_cast<double>(per_qubit.size()));
}

double FidelityReport::mean_fidelity_excluding(
    std::span<const std::size_t> excluded) const {
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t q = 0; q < per_qubit.size(); ++q) {
    if (std::find(excluded.begin(), excluded.end(), q) != excluded.end())
      continue;
    acc += per_qubit[q].macro_fidelity();
    ++n;
  }
  MLQR_CHECK_MSG(n > 0, "all qubits excluded");
  return acc / static_cast<double>(n);
}

double FidelityReport::readout_error_excluding(
    std::span<const std::size_t> excluded) const {
  return 1.0 - mean_fidelity_excluding(excluded);
}

}  // namespace mlqr
