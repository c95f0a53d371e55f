#include "cluster/leakage_labeler.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"

namespace mlqr {

namespace {

/// A point is a leakage candidate when it is farther than this many robust
/// scales from *both* computational centroids...
constexpr double kOutlierSigma = 3.5;
/// ...and farther than this many scales from the 0-1 relaxation chord.
constexpr double kChordSigma = 3.0;
/// Below this many candidates the qubit is declared leakage-free.
constexpr std::size_t kMinLeakCandidates = 3;
/// Final assignment: a trace is labeled |2> only when it is nearest the
/// leak centroid and still this many scales away from both computational
/// centroids (keeps relaxed-tail traces computational).
constexpr double kAssignSigma = 2.5;

double median(std::vector<double> xs) {
  MLQR_CHECK(!xs.empty());
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + mid, xs.end());
  double hi = xs[mid];
  if (xs.size() % 2 == 0) {
    std::nth_element(xs.begin(), xs.begin() + mid - 1, xs.begin() + mid);
    return 0.5 * (xs[mid - 1] + hi);
  }
  return hi;
}

std::complex<double> component_median(
    std::span<const std::complex<double>> points,
    std::span<const std::size_t> members) {
  std::vector<double> re, im;
  re.reserve(members.size());
  im.reserve(members.size());
  for (std::size_t s : members) {
    re.push_back(points[s].real());
    im.push_back(points[s].imag());
  }
  return {median(std::move(re)), median(std::move(im))};
}

}  // namespace

LeakageLabeling label_natural_leakage(
    std::span<const std::complex<double>> mtv, std::span<const int> prepared) {
  MLQR_CHECK(mtv.size() == prepared.size());
  MLQR_CHECK_MSG(mtv.size() >= 30, "too few traces to mine leakage");
  const std::size_t n = mtv.size();

  // Robust computational centroids and scales from the prepared labels.
  std::array<std::vector<std::size_t>, 2> members;
  for (std::size_t s = 0; s < n; ++s) {
    const int p = prepared[s];
    MLQR_CHECK(p == 0 || p == 1);
    members[p].push_back(s);
  }
  MLQR_CHECK_MSG(members[0].size() >= 8 && members[1].size() >= 8,
                 "need both |0> and |1> preparations");

  std::array<std::complex<double>, 2> centroid;
  std::array<double, 2> scale{};
  for (int c = 0; c < 2; ++c) {
    centroid[c] = component_median(mtv, members[c]);
    std::vector<double> dists;
    dists.reserve(members[c].size());
    for (std::size_t s : members[c])
      dists.push_back(std::abs(mtv[s] - centroid[c]));
    scale[c] = std::max(median(std::move(dists)), 1e-12);
  }
  const double s_max = std::max(scale[0], scale[1]);

  // Chord geometry: relaxation (1->0) and excitation (0->1) during the
  // readout window drag the MTV along the segment c0 -> c1.
  const std::complex<double> chord = centroid[1] - centroid[0];
  const double chord_len = std::abs(chord);
  MLQR_CHECK_MSG(chord_len > 1e-9, "|0> and |1> responses coincide");
  const std::complex<double> u = chord / chord_len;

  auto chord_coords = [&](const std::complex<double>& z) {
    const std::complex<double> rel = z - centroid[0];
    const double along = (std::conj(u) * rel).real();
    const double perp = std::abs(rel - along * u);
    return std::pair<double, double>{along, perp};
  };
  // Chord half-width: noise-scaled, but never wider than a fraction of the
  // chord itself (a low-SNR qubit would otherwise classify the whole plane
  // as "on chord" and mining could never fire).
  const double chord_halfwidth =
      std::min(kChordSigma * s_max, 0.35 * chord_len);
  auto on_chord = [&](const std::complex<double>& z) {
    const auto [along, perp] = chord_coords(z);
    return perp <= chord_halfwidth && along >= -3.0 * s_max &&
           along <= chord_len + 3.0 * s_max;
  };
  auto outlier_score = [&](const std::complex<double>& z) {
    return std::min(std::abs(z - centroid[0]) / scale[0],
                    std::abs(z - centroid[1]) / scale[1]);
  };

  // Leakage candidates: far from both blobs, off the chord. When the |2>
  // response sits close to a computational blob (the paper's qubit 2), the
  // gate is loosened stepwise until a minimal population appears — mined
  // labels get noisier, which is exactly the degradation the paper reports
  // for that qubit.
  std::vector<std::size_t> candidates;
  for (double sigma = kOutlierSigma; sigma >= 0.7 * kOutlierSigma - 1e-9;
       sigma -= 0.15 * kOutlierSigma) {
    candidates.clear();
    for (std::size_t s = 0; s < n; ++s)
      if (outlier_score(mtv[s]) > sigma && !on_chord(mtv[s]))
        candidates.push_back(s);
    if (candidates.size() >= kMinLeakCandidates) break;
  }

  LeakageLabeling out;
  out.levels.assign(n, 0);
  out.centroids.assign(3, {0.0, 0.0});
  out.centroids[0] = centroid[0];
  out.centroids[1] = centroid[1];

  auto nearest_computational = [&](const std::complex<double>& z) {
    return std::abs(z - centroid[0]) <= std::abs(z - centroid[1]) ? 0 : 1;
  };

  if (candidates.size() < kMinLeakCandidates) {
    for (std::size_t s = 0; s < n; ++s)
      out.levels[s] = nearest_computational(mtv[s]);
    return out;
  }

  out.found_leakage = true;
  std::complex<double> leak_centroid = component_median(mtv, candidates);
  // One refinement pass: re-center on the candidates within 3 scales of
  // the initial leak centroid (sheds stragglers from deep relax tails).
  {
    std::vector<double> dists;
    dists.reserve(candidates.size());
    for (std::size_t s : candidates)
      dists.push_back(std::abs(mtv[s] - leak_centroid));
    const double leak_scale = std::max(median(dists), 1e-12);
    std::vector<std::size_t> core;
    for (std::size_t s : candidates)
      if (std::abs(mtv[s] - leak_centroid) <= 3.0 * leak_scale)
        core.push_back(s);
    if (core.size() >= kMinLeakCandidates)
      leak_centroid = component_median(mtv, core);
  }
  out.centroids[2] = leak_centroid;

  for (std::size_t s = 0; s < n; ++s) {
    const std::complex<double>& z = mtv[s];
    const double d_leak = std::abs(z - leak_centroid);
    const bool nearest_is_leak = d_leak < std::abs(z - centroid[0]) &&
                                 d_leak < std::abs(z - centroid[1]);
    if (nearest_is_leak && outlier_score(z) > kAssignSigma &&
        !on_chord(z)) {
      out.levels[s] = 2;
      ++out.leakage_count;
    } else {
      out.levels[s] = nearest_computational(z);
    }
  }
  return out;
}

}  // namespace mlqr
