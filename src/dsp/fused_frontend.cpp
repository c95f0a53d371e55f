#include "dsp/fused_frontend.h"

#include <algorithm>

#include "common/error.h"
#include "common/serialize.h"
#include "common/simd.h"

namespace mlqr {

FusedFrontend FusedFrontend::build(const Demodulator& demod,
                                   const ChipMfBank& bank,
                                   const FeatureNormalizer& norm,
                                   std::size_t n_samples) {
  MLQR_CHECK(n_samples > 0);
  const std::size_t n_qubits = bank.num_qubits();
  const std::size_t per_q = bank.features_per_qubit();
  const std::size_t n_filters = bank.total_features();
  MLQR_CHECK(demod.num_qubits() == n_qubits);
  MLQR_CHECK_MSG(norm.dim() == n_filters,
                 "normalizer dim " << norm.dim() << " != " << n_filters);

  FusedFrontend fe;
  fe.n_samples_ = n_samples;
  fe.n_qubits_ = n_qubits;
  fe.table_.assign(n_filters, n_samples);
  fe.scale_.reserve(n_filters);
  fe.offset_.reserve(n_filters);

  for (std::size_t q = 0; q < n_qubits; ++q) {
    for (std::size_t f = 0; f < per_q; ++f) {
      const MatchedFilter& mf = bank.bank(q).filter(f);
      MLQR_CHECK_MSG(mf.length() == n_samples,
                     "kernel length " << mf.length() << " != " << n_samples);
      float* kr = fe.table_.row_r(q * per_q + f);
      float* ki = fe.table_.row_i(q * per_q + f);
      // Rotation in double (exact LO phasor), storage in float: the one
      // rounding the fused path adds over the reference path.
      for (std::size_t t = 0; t < n_samples; ++t) {
        const Complexd r = mf.kernel()[t] * demod.lo_phase(q, t);
        kr[t] = static_cast<float>(r.real());
        ki[t] = static_cast<float>(r.imag());
      }
      const std::size_t j = q * per_q + f;
      const double std_dev = static_cast<double>(norm.std_dev()[j]);
      fe.scale_.push_back(static_cast<float>(1.0 / std_dev));
      fe.offset_.push_back(static_cast<float>(
          -(mf.bias() + static_cast<double>(norm.mean()[j])) / std_dev));
    }
  }
  return fe;
}

void FusedFrontend::save(std::ostream& os) const {
  io::write_u64(os, n_samples_);
  io::write_u64(os, n_qubits_);
  table_.save_rows(os);
  io::write_vec_f32(os, scale_);
  io::write_vec_f32(os, offset_);
}

FusedFrontend FusedFrontend::load(std::istream& is) {
  FusedFrontend fe;
  fe.n_samples_ = io::read_count(is);
  fe.n_qubits_ = io::read_count(is, 4096);
  MLQR_CHECK_MSG(fe.n_samples_ > 0 && fe.n_qubits_ > 0,
                 "corrupt fused front-end dims");
  fe.table_.load_rows(is, fe.n_samples_);
  fe.scale_ = io::read_vec_f32(is);
  fe.offset_ = io::read_vec_f32(is);
  MLQR_CHECK_MSG(!fe.scale_.empty() && fe.offset_.size() == fe.scale_.size() &&
                     fe.table_.row_elements() ==
                         fe.scale_.size() * fe.n_samples_,
                 "fused front-end tables do not match their dims ("
                     << fe.scale_.size() << " filters x " << fe.n_samples_
                     << " samples)");
  return fe;
}

void FusedFrontend::features_into(const IqTrace& trace,
                                  InferenceScratch& scratch) const {
  MLQR_CHECK(valid());
  trace.check_consistent();
  MLQR_CHECK_MSG(trace.size() >= n_samples_,
                 "trace shorter than front-end window: "
                     << trace.size() << " < " << n_samples_);
  const simd::Kernels& k = simd::kernels();
  const float* xi = trace.i.data();
  const float* xq = trace.q.data();
  scratch.features.resize(n_filters());
  for (std::size_t f = 0; f < n_filters(); ++f) {
    const float acc =
        k.fused_dot_f32(table_.row_r(f), table_.row_i(f), xi, xq, n_samples_);
    const float z = acc * scale_[f] + offset_[f];
    scratch.features[f] = std::clamp(z, -kMaxAbsFeatureZ, kMaxAbsFeatureZ);
  }
}

void FusedFrontend::features_block_into(std::size_t block,
                                        const IqTrace* const* traces,
                                        float* out,
                                        std::size_t out_stride) const {
  MLQR_CHECK(valid());
  // Small shot blocks keep the traces hot while one kernel row pair
  // (2 x n_samples floats) streams across them; the full table then
  // loads once per block of shots instead of once per shot. Four shots
  // of float I/Q (4 x 2 x n_samples x 4 B = 16 KiB at the paper's 500
  // samples) leave half of a 32 KiB L1 for the streaming row pair;
  // larger blocks evict the traces and re-stream them per filter, which
  // merely trades table traffic for trace traffic.
  constexpr std::size_t kShotBlock = 4;
  const simd::Kernels& k = simd::kernels();
  for (std::size_t b0 = 0; b0 < block; b0 += kShotBlock) {
    const std::size_t nb = std::min(kShotBlock, block - b0);
    const float* xi[kShotBlock];
    const float* xq[kShotBlock];
    for (std::size_t s = 0; s < nb; ++s) {
      const IqTrace& trace = *traces[b0 + s];
      trace.check_consistent();
      MLQR_CHECK_MSG(trace.size() >= n_samples_,
                     "trace shorter than front-end window: "
                         << trace.size() << " < " << n_samples_);
      xi[s] = trace.i.data();
      xq[s] = trace.q.data();
    }
    for (std::size_t f = 0; f < n_filters(); ++f) {
      // A full block scores its four shots in one kernel-row pass; every
      // tier computes each score in features_into's order, so the values
      // — and the affine chain below — are bit-identical to it.
      const float* kr = table_.row_r(f);
      const float* ki = table_.row_i(f);
      float accs[kShotBlock];
      if (nb == kShotBlock) {
        k.fused_dot_f32_x4(kr, ki, xi, xq, n_samples_, accs);
      } else {
        for (std::size_t s = 0; s < nb; ++s)
          accs[s] = k.fused_dot_f32(kr, ki, xi[s], xq[s], n_samples_);
      }
      for (std::size_t s = 0; s < nb; ++s) {
        const float z = accs[s] * scale_[f] + offset_[f];
        out[(b0 + s) * out_stride + f] =
            std::clamp(z, -kMaxAbsFeatureZ, kMaxAbsFeatureZ);
      }
    }
  }
}

}  // namespace mlqr
