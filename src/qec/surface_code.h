// Rotated surface code lattice (distance d): d^2 data qubits, d^2-1
// stabilizer ancillas in a checkerboard of X and Z plaquettes with
// weight-2 stabilizers on the boundary.
//
// The leakage simulator and the ERASER speculation policies only need the
// qubit-ancilla adjacency and stabilizer types; no full stabilizer-state
// tracking is required for the phenomenological leakage study (leakage is
// non-Clifford, so published evaluations also work with syndrome-signature
// models — see DESIGN.md SS1).
#pragma once

#include <cstddef>
#include <vector>

namespace mlqr {

enum class StabilizerType { kX, kZ };

/// One stabilizer measurement site (plaquette + its ancilla qubit).
struct Stabilizer {
  StabilizerType type = StabilizerType::kX;
  std::vector<std::size_t> data;  ///< Adjacent data-qubit indices (2 or 4).
};

/// Rotated surface code of odd distance d >= 3.
class SurfaceCode {
 public:
  explicit SurfaceCode(std::size_t distance);

  std::size_t distance() const { return d_; }
  std::size_t num_data() const { return d_ * d_; }
  std::size_t num_stabilizers() const { return stabilizers_.size(); }

  const Stabilizer& stabilizer(std::size_t a) const {
    return stabilizers_.at(a);
  }
  const std::vector<Stabilizer>& stabilizers() const { return stabilizers_; }

  /// Stabilizers adjacent to a data qubit (2, 3, or 4 of them).
  const std::vector<std::size_t>& stabilizers_of_data(std::size_t q) const {
    return data_to_stab_.at(q);
  }

 private:
  std::size_t d_ = 0;
  std::vector<Stabilizer> stabilizers_;
  std::vector<std::vector<std::size_t>> data_to_stab_;
};

}  // namespace mlqr
