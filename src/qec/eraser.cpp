#include "qec/eraser.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/error.h"
#include "common/parallel.h"

namespace mlqr {

double SpeculationStats::recall() const {
  const std::size_t denom = true_positive + false_negative;
  return denom == 0 ? 1.0
                    : static_cast<double>(true_positive) /
                          static_cast<double>(denom);
}

double SpeculationStats::specificity() const {
  const std::size_t denom = true_negative + false_positive;
  return denom == 0 ? 1.0
                    : static_cast<double>(true_negative) /
                          static_cast<double>(denom);
}

double SpeculationStats::speculation_accuracy() const {
  return 0.5 * (recall() + specificity());
}

namespace {

/// Data-qubit speculation: >= kMinActive adjacent stabilizer flips in each
/// of kWindow consecutive cycles.
constexpr int kWindow = 2;
constexpr int kMinActive = 2;
/// Ancilla speculation (syndrome-only mode): flips in >= kAncFlips of the
/// last kAncWindow cycles.
constexpr int kAncWindow = 3;
constexpr int kAncFlips = 2;
/// LRC quality.
constexpr double kLrcFix = 0.98;
constexpr double kLrcInduce = 0.008;

/// One independent trial; returns partial stats.
SpeculationStats run_trial(const SurfaceCode& code, const LeakageRates& rates,
                           const MultiLevelReadout& ml, std::size_t n_cycles,
                           std::uint64_t seed) {
  LeakageSimulator sim(code, rates, ml, seed);

  const std::size_t n_data = code.num_data();
  const std::size_t n_anc = code.num_stabilizers();

  SpeculationStats stats;
  std::vector<std::uint8_t> prev_syndrome(n_anc, 0);
  // Flip history ring buffers.
  std::vector<std::vector<std::uint8_t>> anc_flip_hist;   // [t][a]
  std::vector<std::vector<std::uint8_t>> data_active_hist;  // [t][q]
  std::vector<std::uint8_t> anc_read_two_prev(n_anc, 0);
  // Episode tracking (see SpeculationStats).
  std::vector<std::uint8_t> data_in_episode(n_data, 0),
      data_episode_hit(n_data, 0);
  std::vector<std::uint8_t> anc_in_episode(n_anc, 0), anc_episode_hit(n_anc, 0);
  std::vector<std::size_t> data_episode_start(n_data, 0),
      anc_episode_start(n_anc, 0);
  std::size_t current_cycle = 0;

  for (std::size_t cycle = 0; cycle < n_cycles; ++cycle) {
    // step() advances dynamics then measures; decisions are scored against
    // the post-step (pre-LRC) ground truth — the state the policy is
    // trying to detect.
    const CycleObservation obs = sim.step();
    const std::vector<std::uint8_t> post_data = sim.data_leaked();
    const std::vector<std::uint8_t> post_anc = sim.ancilla_leaked();

    // Syndrome flips vs previous cycle.
    std::vector<std::uint8_t> flips(n_anc);
    for (std::size_t a = 0; a < n_anc; ++a)
      flips[a] = obs.syndrome[a] ^ prev_syndrome[a];
    prev_syndrome = obs.syndrome;
    anc_flip_hist.push_back(flips);

    // Data activity: count of flipped adjacent stabilizers this cycle.
    // Boundary data qubits touch only two stabilizers, so the threshold
    // adapts to the adjacency degree (at least half must flip).
    std::vector<std::uint8_t> active(n_data, 0);
    for (std::size_t q = 0; q < n_data; ++q) {
      const auto& adjacent = code.stabilizers_of_data(q);
      int flipped = 0;
      for (std::size_t a : adjacent) flipped += flips[a];
      const int needed = std::min<int>(
          kMinActive, static_cast<int>((adjacent.size() + 1) / 2));
      active[q] = flipped >= needed ? 1 : 0;
    }
    data_active_hist.push_back(active);

    // ---- Speculation decisions. ----
    std::vector<std::uint8_t> spec_data(n_data, 0);
    std::vector<std::uint8_t> spec_anc(n_anc, 0);

    // Data: sustained multi-neighbour activity over kWindow cycles ...
    if (data_active_hist.size() >= static_cast<std::size_t>(kWindow)) {
      for (std::size_t q = 0; q < n_data; ++q) {
        bool all_active = true;
        for (int w = 0; w < kWindow && all_active; ++w)
          all_active = data_active_hist[data_active_hist.size() - 1 - w][q];
        if (all_active) spec_data[q] = 1;
      }
    }

    if (ml.enabled) {
      // Ancilla: direct |2> detection from three-level readout.
      for (std::size_t a = 0; a < n_anc; ++a)
        spec_anc[a] = obs.ancilla_reads_two[a];
      // Data: transport evidence — an adjacent ancilla turning |2> right
      // after this qubit showed activity points at a leaked data partner.
      for (std::size_t q = 0; q < n_data; ++q) {
        if (spec_data[q]) continue;
        if (!active[q]) continue;
        for (std::size_t a : code.stabilizers_of_data(q)) {
          if (obs.ancilla_reads_two[a] && !anc_read_two_prev[a]) {
            spec_data[q] = 1;
            break;
          }
        }
      }
      anc_read_two_prev = obs.ancilla_reads_two;
    } else {
      // Ancilla: its own syndrome flickers randomly when leaked.
      if (anc_flip_hist.size() >= static_cast<std::size_t>(kAncWindow)) {
        for (std::size_t a = 0; a < n_anc; ++a) {
          int flipped = 0;
          for (int w = 0; w < kAncWindow; ++w)
            flipped += anc_flip_hist[anc_flip_hist.size() - 1 - w][a];
          if (flipped >= kAncFlips) spec_anc[a] = 1;
        }
      }
    }

    // ---- Score against post-step ground truth, then apply LRCs.
    // Episode bookkeeping: in_episode = currently-leaked qubit;
    // episode_hit = it was speculated at least once so far.
    auto score_and_fix = [&](std::span<const std::uint8_t> leaked,
                             std::span<const std::uint8_t> speculated,
                             std::vector<std::uint8_t>& in_episode,
                             std::vector<std::uint8_t>& episode_hit,
                             std::vector<std::size_t>& episode_start,
                             auto&& apply_lrc) {
      for (std::size_t i = 0; i < leaked.size(); ++i) {
        if (leaked[i]) {
          if (!in_episode[i]) {
            in_episode[i] = 1;
            episode_hit[i] = 0;
            episode_start[i] = current_cycle;
          }
          if (speculated[i]) episode_hit[i] = 1;
        } else {
          if (in_episode[i]) {
            // Episode closed by decay or a previous cycle's LRC.
            episode_hit[i] ? ++stats.true_positive : ++stats.false_negative;
            in_episode[i] = 0;
          }
          speculated[i] ? ++stats.false_positive : ++stats.true_negative;
        }
        if (speculated[i]) {
          apply_lrc(i);
          ++stats.lrc_applications;
          // A successful LRC closes the episode as detected right away.
          if (in_episode[i] && episode_hit[i]) {
            ++stats.true_positive;
            in_episode[i] = 0;
          }
        }
      }
    };
    score_and_fix(post_data, spec_data, data_in_episode, data_episode_hit,
                  data_episode_start, [&](std::size_t q) {
                    sim.apply_lrc_data(q, kLrcFix, kLrcInduce);
                  });
    score_and_fix(post_anc, spec_anc, anc_in_episode, anc_episode_hit,
                  anc_episode_start, [&](std::size_t a) {
                    sim.apply_lrc_ancilla(a, kLrcFix, kLrcInduce);
                  });
    ++current_cycle;
  }

  // Flush episodes still open at the end of the run. Episodes observed for
  // fewer cycles than the policy's own detection window are censored (the
  // policy never had a chance) — detected ones still count.
  const std::size_t min_observed =
      static_cast<std::size_t>(std::max(kWindow, kAncWindow)) + 2;
  auto flush = [&](const std::vector<std::uint8_t>& in_episode,
                   const std::vector<std::uint8_t>& hit,
                   const std::vector<std::size_t>& started) {
    for (std::size_t i = 0; i < in_episode.size(); ++i) {
      if (!in_episode[i]) continue;
      if (hit[i])
        ++stats.true_positive;
      else if (n_cycles - started[i] >= min_observed)
        ++stats.false_negative;
    }
  };
  flush(data_in_episode, data_episode_hit, data_episode_start);
  flush(anc_in_episode, anc_episode_hit, anc_episode_start);

  stats.final_leakage_population = sim.leakage_population();
  return stats;
}

}  // namespace

SpeculationStats run_eraser(const SurfaceCode& code, const LeakageRates& rates,
                            const MultiLevelReadout& ml, std::size_t n_cycles,
                            std::size_t n_trials, std::uint64_t seed) {
  MLQR_CHECK(n_cycles > 0 && n_trials > 0);
  std::vector<SpeculationStats> trials(n_trials);
  parallel_for(0, n_trials, [&](std::size_t t) {
    trials[t] = run_trial(code, rates, ml, n_cycles,
                          seed ^ (0xa0761d6478bd642fULL * (t + 1)));
  });

  SpeculationStats pooled;
  double lp = 0.0;
  for (const SpeculationStats& s : trials) {
    pooled.true_positive += s.true_positive;
    pooled.false_positive += s.false_positive;
    pooled.true_negative += s.true_negative;
    pooled.false_negative += s.false_negative;
    pooled.lrc_applications += s.lrc_applications;
    lp += s.final_leakage_population;
  }
  pooled.final_leakage_population = lp / static_cast<double>(n_trials);
  return pooled;
}

}  // namespace mlqr
