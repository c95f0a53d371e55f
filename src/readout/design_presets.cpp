#include "readout/design_presets.h"

#include <cmath>

#include "common/error.h"
#include "discrim/joint_label.h"
#include "discrim/proposed.h"

namespace mlqr {

DesignSpec proposed_design_spec(std::size_t n_qubits, int n_levels,
                                std::size_t kernel_len) {
  MLQR_CHECK(n_qubits > 0 && n_levels >= 2);
  DesignSpec spec;
  spec.name = "OURS";
  spec.demod_channels = n_qubits;
  // k*(k-1)/2 filters per group x 3 groups (QMF/RMF/EMF): 9 at k=3.
  const std::size_t per_q =
      3 * (static_cast<std::size_t>(n_levels) *
           (static_cast<std::size_t>(n_levels) - 1) / 2);
  spec.matched_filters = n_qubits * per_q;
  spec.mf_kernel_len = kernel_len;
  const std::size_t feat = spec.matched_filters;  // Merged features.
  for (std::size_t q = 0; q < n_qubits; ++q)
    spec.nns.push_back(
        proposed_head_sizes(feat, static_cast<std::size_t>(n_levels)));
  spec.hls.weight_bits = 8;
  spec.hls.reuse_factor = 1;
  return spec;
}

DesignSpec herqules_design_spec(std::size_t n_qubits, int n_levels,
                                std::size_t kernel_len) {
  MLQR_CHECK(n_qubits > 0 && n_levels >= 2);
  DesignSpec spec;
  spec.name = "HERQULES";
  spec.demod_channels = n_qubits;
  const std::size_t per_q =
      n_levels >= 3 ? 6 : 2;  // QMF+RMF pairs; 2 in the two-level original.
  spec.matched_filters = n_qubits * per_q;
  spec.mf_kernel_len = kernel_len;
  const std::size_t input = spec.matched_filters;
  spec.nns.push_back(
      {input, 60, 120, joint_class_count(n_qubits, n_levels)});
  spec.hls.weight_bits = 8;
  spec.hls.reuse_factor = 1;
  return spec;
}

DesignSpec fnn_design_spec(std::size_t n_qubits, int n_levels,
                           std::size_t samples) {
  MLQR_CHECK(samples > 0);
  DesignSpec spec;
  spec.name = "FNN";
  spec.demod_channels = 0;
  spec.matched_filters = 0;
  spec.mf_kernel_len = 0;
  spec.nns.push_back(
      {2 * samples, 500, 250, joint_class_count(n_qubits, n_levels)});
  spec.hls.weight_bits = 8;
  spec.hls.reuse_factor = 1;
  return spec;
}

DesignSpec fnn_folded_design_spec(std::size_t n_qubits, int n_levels,
                                  std::size_t samples,
                                  const FpgaDevice& device) {
  DesignSpec spec = fnn_design_spec(n_qubits, n_levels, samples);
  spec.name = "FNN(folded)";
  // Fold the *total* MAC count onto the device DSP budget (the layers
  // share the array in a dataflow schedule).
  std::size_t total_macs = 0;
  for (const auto& sizes : spec.nns)
    for (std::size_t l = 0; l + 1 < sizes.size(); ++l)
      total_macs += sizes[l] * sizes[l + 1];
  spec.hls.reuse_factor = static_cast<int>(
      std::ceil(static_cast<double>(total_macs) /
                static_cast<double>(device.dsps)));
  // Per-layer ceil() rounding can spill a couple of DSPs past the budget;
  // bump the reuse factor until the folded design truly fits.
  while (estimate_design(spec).dsps > static_cast<double>(device.dsps))
    ++spec.hls.reuse_factor;
  return spec;
}

}  // namespace mlqr
