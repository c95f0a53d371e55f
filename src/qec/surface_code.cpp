#include "qec/surface_code.h"

#include "common/error.h"

namespace mlqr {

SurfaceCode::SurfaceCode(std::size_t distance) : d_(distance) {
  MLQR_CHECK_MSG(d_ >= 3 && d_ % 2 == 1, "distance must be odd and >= 3");

  // Plaquette corners live on the (d+1) x (d+1) grid of positions (i, j);
  // the plaquette at (i, j) touches data qubits (i-1..i, j-1..j).
  // Checkerboard typing plus the boundary rule (X plaquettes terminate on
  // the top/bottom edges, Z on the left/right) yields exactly d^2-1 sites.
  for (std::size_t i = 0; i <= d_; ++i) {
    for (std::size_t j = 0; j <= d_; ++j) {
      std::vector<std::size_t> data;
      for (std::size_t di = 0; di < 2; ++di) {
        for (std::size_t dj = 0; dj < 2; ++dj) {
          if (i + di == 0 || j + dj == 0) continue;
          const std::size_t r = i + di - 1;
          const std::size_t c = j + dj - 1;
          if (r >= d_ || c >= d_) continue;
          data.push_back(r * d_ + c);
        }
      }
      if (data.size() != 2 && data.size() != 4) continue;

      const StabilizerType type =
          (i + j) % 2 == 1 ? StabilizerType::kX : StabilizerType::kZ;
      if (data.size() == 2) {
        const bool top_bottom = (i == 0 || i == d_);
        const bool left_right = (j == 0 || j == d_);
        if (top_bottom && type != StabilizerType::kX) continue;
        if (left_right && type != StabilizerType::kZ) continue;
        if (!top_bottom && !left_right) continue;
      }
      stabilizers_.push_back({type, std::move(data)});
    }
  }
  MLQR_CHECK_MSG(stabilizers_.size() == d_ * d_ - 1,
                 "rotated layout produced " << stabilizers_.size()
                                            << " stabilizers, expected "
                                            << d_ * d_ - 1);

  data_to_stab_.resize(num_data());
  for (std::size_t a = 0; a < stabilizers_.size(); ++a)
    for (std::size_t q : stabilizers_[a].data) data_to_stab_[q].push_back(a);
}

}  // namespace mlqr
