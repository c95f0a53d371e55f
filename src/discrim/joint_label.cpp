#include "discrim/joint_label.h"

#include <limits>

#include "common/error.h"

namespace mlqr {

std::size_t joint_class_count(std::size_t n_qubits, int n_levels) {
  MLQR_CHECK(n_levels >= 2 && n_qubits > 0);
  std::size_t total = 1;
  for (std::size_t q = 0; q < n_qubits; ++q) {
    MLQR_CHECK_MSG(total <= std::numeric_limits<std::size_t>::max() /
                                static_cast<std::size_t>(n_levels),
                   "joint class count overflow");
    total *= static_cast<std::size_t>(n_levels);
  }
  return total;
}

std::size_t encode_joint(std::span<const int> levels, int n_levels) {
  MLQR_CHECK(!levels.empty());
  std::size_t joint = 0;
  std::size_t base = 1;
  for (int level : levels) {
    MLQR_CHECK_MSG(level >= 0 && level < n_levels,
                   "level " << level << " out of [0," << n_levels << ')');
    joint += base * static_cast<std::size_t>(level);
    base *= static_cast<std::size_t>(n_levels);
  }
  return joint;
}

void decode_joint_into(std::size_t joint, int n_levels, std::span<int> out) {
  const std::size_t total = joint_class_count(out.size(), n_levels);
  MLQR_CHECK_MSG(joint < total, "joint index " << joint << " out of range");
  for (std::size_t q = 0; q < out.size(); ++q) {
    out[q] = static_cast<int>(joint % static_cast<std::size_t>(n_levels));
    joint /= static_cast<std::size_t>(n_levels);
  }
}

}  // namespace mlqr
