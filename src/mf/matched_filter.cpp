#include "mf/matched_filter.h"

#include <cmath>

#include "common/error.h"
#include "common/serialize.h"
#include "linalg/stats.h"

namespace mlqr {

BinStats bin_stats(std::span<const BasebandTrace> traces,
                   std::span<const std::size_t> members,
                   std::size_t n_samples) {
  MLQR_CHECK_MSG(!members.empty(), "matched filter class has no traces");
  BinStats out;
  out.mean.assign(n_samples, Complexd{0.0, 0.0});
  out.var.assign(n_samples, 0.0);

  std::vector<RunningStats> re(n_samples), im(n_samples);
  for (std::size_t idx : members) {
    MLQR_CHECK(idx < traces.size());
    const BasebandTrace& tr = traces[idx];
    MLQR_CHECK_MSG(tr.size() >= n_samples,
                   "trace shorter than kernel: " << tr.size() << " < "
                                                 << n_samples);
    for (std::size_t t = 0; t < n_samples; ++t) {
      re[t].add(tr[t].real());
      im[t].add(tr[t].imag());
    }
  }
  for (std::size_t t = 0; t < n_samples; ++t) {
    out.mean[t] = {re[t].mean(), im[t].mean()};
    out.var[t] = re[t].variance() + im[t].variance();
  }
  return out;
}

MatchedFilter MatchedFilter::build(std::span<const BasebandTrace> traces,
                                   std::span<const std::size_t> class_a,
                                   std::span<const std::size_t> class_b,
                                   std::size_t n_samples,
                                   std::size_t smooth_window) {
  return build(traces, class_a, bin_stats(traces, class_a, n_samples), class_b,
               bin_stats(traces, class_b, n_samples), smooth_window);
}

MatchedFilter MatchedFilter::build(std::span<const BasebandTrace> traces,
                                   std::span<const std::size_t> class_a,
                                   const BinStats& stats_a,
                                   std::span<const std::size_t> class_b,
                                   const BinStats& stats_b,
                                   std::size_t smooth_window) {
  const std::size_t n_samples = stats_a.mean.size();
  MLQR_CHECK(n_samples > 0 && stats_b.mean.size() == n_samples);
  // Smoothing yields new means, so the shared statistics stay untouched for
  // the bank's other filters.
  auto smoothed = [smooth_window](const std::vector<Complexd>& xs) {
    if (smooth_window <= 1) return xs;
    std::vector<Complexd> out(xs.size());
    for (std::size_t t = 0; t < xs.size(); ++t) {
      const std::size_t lo = t >= smooth_window / 2 ? t - smooth_window / 2 : 0;
      const std::size_t hi = std::min(xs.size(), lo + smooth_window);
      Complexd acc{0.0, 0.0};
      for (std::size_t s = lo; s < hi; ++s) acc += xs[s];
      out[t] = acc / static_cast<double>(hi - lo);
    }
    return out;
  };
  const std::vector<Complexd> mean_a = smoothed(stats_a.mean);
  const std::vector<Complexd> mean_b = smoothed(stats_b.mean);
  const std::vector<double>& var_a = stats_a.var;
  const std::vector<double>& var_b = stats_b.var;

  // Regularize the denominator with the median-scale variance so bins with
  // tiny sample variance (small classes) cannot dominate the kernel.
  double var_scale = 0.0;
  for (std::size_t t = 0; t < n_samples; ++t) var_scale += var_a[t] + var_b[t];
  var_scale /= static_cast<double>(2 * n_samples);
  const double eps = std::max(1e-12, 0.05 * var_scale);

  MatchedFilter mf;
  mf.kernel_.resize(n_samples);
  for (std::size_t t = 0; t < n_samples; ++t) {
    const Complexd diff = mean_b[t] - mean_a[t];
    mf.kernel_[t] = std::conj(diff) / (var_a[t] + var_b[t] + eps);
  }

  // Project both centroids through the raw kernel to derive the affine
  // normalization (a -> -0.5, b -> +0.5).
  auto project = [&mf, n_samples](const std::vector<Complexd>& mean) {
    double acc = 0.0;
    for (std::size_t t = 0; t < n_samples; ++t)
      acc += (mf.kernel_[t] * mean[t]).real();
    return acc;
  };
  auto project_trace = [&mf, n_samples](const BasebandTrace& tr) {
    double acc = 0.0;
    for (std::size_t t = 0; t < n_samples; ++t)
      acc += (mf.kernel_[t] * tr[t]).real();
    return acc;
  };
  const double pa = project(mean_a);
  const double pb = project(mean_b);
  mf.separation_ = pb - pa;
  MLQR_CHECK_MSG(std::abs(mf.separation_) > 1e-12,
                 "matched filter classes are indistinguishable");

  // Within-class spread of the projections: floors the normalization so a
  // low-SNR kernel (tiny centroid separation estimated from a handful of
  // traces) cannot explode the feature scale downstream.
  RunningStats spread;
  for (std::size_t idx : class_a)
    spread.add(project_trace(traces[idx]) - pa);
  for (std::size_t idx : class_b)
    spread.add(project_trace(traces[idx]) - pb);
  const double sigma = std::sqrt(spread.variance());
  const double denom = std::max(std::abs(mf.separation_), sigma);
  const double scale = (mf.separation_ >= 0.0 ? 1.0 : -1.0) / denom;

  for (Complexd& k : mf.kernel_) k *= scale;
  mf.bias_ = (pa + pb) * 0.5 * scale;
  return mf;
}

void MatchedFilter::save(std::ostream& os) const {
  io::write_vec_complexd(os, kernel_);
  io::write_f64(os, bias_);
  io::write_f64(os, separation_);
}

MatchedFilter MatchedFilter::load(std::istream& is) {
  MatchedFilter mf;
  mf.kernel_ = io::read_vec_complexd(is);
  MLQR_CHECK_MSG(!mf.kernel_.empty(), "corrupt matched filter: empty kernel");
  mf.bias_ = io::read_f64(is);
  mf.separation_ = io::read_f64(is);
  return mf;
}

double MatchedFilter::apply(const BasebandTrace& trace) const {
  MLQR_CHECK_MSG(trace.size() >= kernel_.size(),
                 "trace shorter than matched-filter kernel");
  double acc = 0.0;
  for (std::size_t t = 0; t < kernel_.size(); ++t)
    acc += (kernel_[t] * trace[t]).real();
  return acc - bias_;
}

}  // namespace mlqr
