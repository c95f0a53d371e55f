#include "sim/transmon.h"

#include <array>
#include <cmath>

#include "common/error.h"

namespace mlqr {

int LevelTrajectory::final_level() const {
  return jumps.empty() ? initial_level : jumps.back().to;
}

TransitionRates TransitionRates::from_profile(const QubitProfile& q,
                                              double window_ns) {
  MLQR_CHECK(window_ns > 0.0);
  TransitionRates r;
  r.down_10 = 1.0 / q.t1_ns;
  r.down_21 = q.gamma21_scale / q.t1_ns;
  r.down_20 = q.gamma20_scale / q.t1_ns;
  // Excitation probabilities are quoted per window; convert to a rate via
  // p = 1 - exp(-rate * window) => rate = -ln(1-p)/window.
  auto to_rate = [window_ns](double p) {
    MLQR_CHECK(p >= 0.0 && p < 1.0);
    return p <= 0.0 ? 0.0 : -std::log1p(-p) / window_ns;
  };
  r.up_01 = to_rate(q.p_excite_01);
  r.up_12 = to_rate(q.p_excite_12);
  r.up_02 = to_rate(q.p_excite_02);
  return r;
}

LevelTrajectory sample_trajectory(int initial_level, double duration_ns,
                                  const TransitionRates& rates, Rng& rng) {
  MLQR_CHECK(initial_level >= 0 && initial_level < kNumLevels);
  MLQR_CHECK(duration_ns > 0.0);

  LevelTrajectory traj;
  traj.initial_level = initial_level;

  double t = 0.0;
  int level = initial_level;
  for (;;) {
    // Outgoing channels from the current level: {target, rate}.
    std::array<std::pair<int, double>, 2> channels{};
    std::size_t n_channels = 0;
    switch (level) {
      case 0:
        channels[n_channels++] = {1, rates.up_01};
        channels[n_channels++] = {2, rates.up_02};
        break;
      case 1:
        channels[n_channels++] = {0, rates.down_10};
        channels[n_channels++] = {2, rates.up_12};
        break;
      case 2:
        channels[n_channels++] = {1, rates.down_21};
        channels[n_channels++] = {0, rates.down_20};
        break;
      default:
        MLQR_CHECK_MSG(false, "level out of range: " << level);
    }
    double total = 0.0;
    for (std::size_t c = 0; c < n_channels; ++c) total += channels[c].second;
    if (total <= 0.0) break;  // Absorbing under current rates.

    t += rng.exponential(total);
    if (t >= duration_ns) break;

    // Pick the winning channel proportionally to its rate.
    double r = rng.uniform() * total;
    int target = channels[n_channels - 1].first;
    for (std::size_t c = 0; c < n_channels; ++c) {
      r -= channels[c].second;
      if (r <= 0.0) {
        target = channels[c].first;
        break;
      }
    }
    traj.jumps.push_back({t, level, target});
    level = target;
  }
  return traj;
}

}  // namespace mlqr
