// Joint-state label encoding for output-exponential designs.
//
// FNN and HERQULES classify the whole register at once: n qubits with k
// levels each map to a single class index in [0, k^n) — base-k digits,
// qubit 0 least significant. This file is deliberately tiny: the k^n blowup
// it encodes is the scalability wall the paper's modular design removes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mlqr {

/// k^n as size_t; throws on overflow (n and k are small in practice).
std::size_t joint_class_count(std::size_t n_qubits, int n_levels);

/// Encodes per-qubit levels into a joint class index.
std::size_t encode_joint(std::span<const int> levels, int n_levels);

/// Decodes a joint class index into per-qubit levels, written into a
/// caller-provided span of size n_qubits (allocation-free).
void decode_joint_into(std::size_t joint, int n_levels, std::span<int> out);

}  // namespace mlqr
