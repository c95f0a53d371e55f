#include "discrim/gaussian.h"

#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/serialize.h"
#include "linalg/stats.h"
#include "nn/dense_stack.h"

namespace mlqr {

namespace {

/// Diagonal load on every covariance before its Cholesky factorization.
constexpr double kCovarianceJitter = 1e-9;

}  // namespace

GaussianClassifier GaussianClassifier::fit(std::span<const double> features,
                                           std::size_t dim,
                                           std::span<const int> labels,
                                           std::size_t n_classes,
                                           GaussianKind kind) {
  MLQR_CHECK(dim > 0 && n_classes >= 2);
  MLQR_CHECK(features.size() == labels.size() * dim);
  MLQR_CHECK(!labels.empty());

  GaussianClassifier g;
  g.kind_ = kind;
  g.dim_ = dim;
  g.means_.resize(n_classes);
  g.present_.assign(n_classes, false);

  std::vector<std::vector<std::size_t>> members(n_classes);
  for (std::size_t s = 0; s < labels.size(); ++s) {
    MLQR_CHECK(labels[s] >= 0 &&
               static_cast<std::size_t>(labels[s]) < n_classes);
    members[labels[s]].push_back(s);
  }

  if (kind == GaussianKind::kQda) {
    g.chols_.reserve(n_classes);
    for (std::size_t c = 0; c < n_classes; ++c) {
      if (members[c].size() < dim + 1) continue;  // Not enough to fit.
      g.present_[c] = true;
      g.means_[c] = column_mean(features, dim, members[c]);
      Matrix cov = covariance(features, dim, members[c], g.means_[c]);
      auto chol = Cholesky::factor(cov, kCovarianceJitter);
      MLQR_CHECK_MSG(chol.has_value(),
                     "QDA covariance for class " << c << " not PD");
      g.log_dets_.push_back(chol->log_det());
      g.chols_.push_back(std::move(*chol));
      // Map class -> factor index implicitly by push order; rebuild below.
    }
    // Re-index factors per class: redo with explicit slots.
    std::vector<Cholesky> chols;
    std::vector<double> log_dets(n_classes, 0.0);
    std::size_t next = 0;
    for (std::size_t c = 0; c < n_classes; ++c) {
      if (!g.present_[c]) continue;
      log_dets[c] = g.log_dets_[next];
      chols.push_back(std::move(g.chols_[next]));
      ++next;
    }
    g.chols_ = std::move(chols);
    g.log_dets_ = std::move(log_dets);
  } else {
    // LDA: pooled within-class covariance.
    Matrix pooled(dim, dim, 0.0);
    double denom = 0.0;
    for (std::size_t c = 0; c < n_classes; ++c) {
      if (members[c].size() < 2) {
        if (!members[c].empty()) {
          g.present_[c] = true;
          g.means_[c] = column_mean(features, dim, members[c]);
        }
        continue;
      }
      g.present_[c] = true;
      g.means_[c] = column_mean(features, dim, members[c]);
      Matrix cov = covariance(features, dim, members[c], g.means_[c]);
      const double w = static_cast<double>(members[c].size() - 1);
      for (std::size_t i = 0; i < dim; ++i)
        for (std::size_t j = 0; j < dim; ++j)
          pooled(i, j) += w * cov(i, j);
      denom += w;
    }
    MLQR_CHECK_MSG(denom > 0.0, "LDA needs a class with >=2 samples");
    for (std::size_t i = 0; i < dim; ++i)
      for (std::size_t j = 0; j < dim; ++j) pooled(i, j) /= denom;
    auto chol = Cholesky::factor(pooled, kCovarianceJitter);
    MLQR_CHECK_MSG(chol.has_value(), "LDA pooled covariance not PD");
    g.log_dets_.assign(1, chol->log_det());
    g.chols_.push_back(std::move(*chol));
  }

  bool any = false;
  for (bool p : g.present_) any = any || p;
  MLQR_CHECK_MSG(any, "no class had enough samples to fit");
  return g;
}

void GaussianClassifier::save(std::ostream& os) const {
  io::write_u8(os, kind_ == GaussianKind::kQda ? 1 : 0);
  io::write_u64(os, dim_);
  io::write_u64(os, means_.size());
  for (std::size_t c = 0; c < means_.size(); ++c) {
    io::write_bool(os, present_[c]);
    if (present_[c]) io::write_vec_f64(os, means_[c]);
  }
  io::write_vec_f64(os, log_dets_);
  io::write_u64(os, chols_.size());
  for (const Cholesky& chol : chols_) chol.save(os);
}

GaussianClassifier GaussianClassifier::load(std::istream& is) {
  GaussianClassifier g;
  const std::uint8_t kind = io::read_u8(is);
  MLQR_CHECK_MSG(kind <= 1, "corrupt Gaussian classifier kind "
                                << static_cast<int>(kind));
  g.kind_ = kind == 1 ? GaussianKind::kQda : GaussianKind::kLda;
  g.dim_ = io::read_count(is, 1u << 12);
  const std::size_t n_classes = io::read_count(is, 4096);
  MLQR_CHECK_MSG(g.dim_ > 0 && n_classes >= 2,
                 "corrupt Gaussian classifier dims");
  g.means_.resize(n_classes);
  g.present_.assign(n_classes, false);
  std::size_t n_present = 0;
  for (std::size_t c = 0; c < n_classes; ++c) {
    if (!io::read_bool(is)) continue;
    g.present_[c] = true;
    ++n_present;
    g.means_[c] = io::read_vec_f64(is);
    MLQR_CHECK_MSG(g.means_[c].size() == g.dim_,
                   "Gaussian class mean does not match its dimension");
  }
  MLQR_CHECK_MSG(n_present > 0, "Gaussian classifier has no fitted class");
  g.log_dets_ = io::read_vec_f64(is);
  const std::size_t n_chols = io::read_count(is, 4096);
  g.chols_.reserve(n_chols);
  for (std::size_t i = 0; i < n_chols; ++i)
    g.chols_.push_back(Cholesky::load(is));
  // scores() walks the factors by the fit-time layout — one pooled factor
  // for LDA, one per present class (with per-class log-dets) for QDA; a
  // stream whose layout disagrees with its kind byte must not half-load.
  const bool qda = g.kind_ == GaussianKind::kQda;
  MLQR_CHECK_MSG(
      qda ? g.chols_.size() == n_present && g.log_dets_.size() == n_classes
          : g.chols_.size() == 1 && g.log_dets_.size() == 1,
      "Gaussian classifier factor layout does not match its kind");
  for (const Cholesky& chol : g.chols_)
    MLQR_CHECK_MSG(chol.lower().rows() == g.dim_,
                   "Gaussian classifier factor does not match its dimension");
  return g;
}

std::vector<double> GaussianClassifier::scores(
    std::span<const double> x) const {
  MLQR_CHECK(x.size() == dim_);
  std::vector<double> s(means_.size(),
                        -std::numeric_limits<double>::infinity());
  std::vector<double> centered(dim_);
  std::size_t qda_index = 0;
  for (std::size_t c = 0; c < means_.size(); ++c) {
    if (!present_[c]) {
      continue;
    }
    for (std::size_t d = 0; d < dim_; ++d) centered[d] = x[d] - means_[c][d];
    if (kind_ == GaussianKind::kQda) {
      const Cholesky& chol = chols_[qda_index++];
      s[c] = -0.5 * log_dets_[c] - 0.5 * chol.mahalanobis_squared(centered);
    } else {
      s[c] = -0.5 * chols_[0].mahalanobis_squared(centered);
    }
  }
  return s;
}

int GaussianClassifier::predict(std::span<const double> x) const {
  const std::vector<double> s = scores(x);
  return argmax_tie_low(std::span<const double>(s));
}

}  // namespace mlqr
