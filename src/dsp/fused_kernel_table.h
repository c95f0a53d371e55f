// Pre-rotated matched-filter kernel storage shared by the float and
// integer fused front-ends — the sample-type-parameterized core of the
// one-pass DDC+MF design.
//
// Both front-ends hold the same thing: an SoA pair of filter-major rows
// (Re R and Im R of every kernel pre-rotated by its qubit's LO) streamed
// by a fused dot product per filter, from the runtime-picked kernel table
// (simd::kernels().fused_dot_f32* for float rows, fused_dot_i16_strip*
// for int16 code rows). Only the sample type differs: int16 rows carry the
// madd-safety invariant (no -2^15 code) and an overflow-safe widening
// strip. FusedSampleTraits captures exactly those differences;
// FusedKernelTable is everything else, written once (both integer head
// widths share the int16 front-end, so there is no int8 table).
// Serialization delegates to the same write_vec_* calls the front-ends
// used directly — the on-disk byte layout is unchanged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/error.h"
#include "common/serialize.h"

namespace mlqr {

/// The per-sample-type policy: the widening strip, row (de)serialization
/// and the load-time code validation.
template <typename Sample>
struct FusedSampleTraits;

template <>
struct FusedSampleTraits<float> {
  /// Float accumulation has no overflow notion; strip is unused.
  static std::size_t compute_strip(const std::vector<float>&,
                                   const std::vector<float>&) {
    return 1;
  }
  static void write_rows(std::ostream& os, const std::vector<float>& rows) {
    io::write_vec_f32(os, rows);
  }
  static std::vector<float> read_rows(std::istream& is) {
    return io::read_vec_f32(is);
  }
  /// Every float bit pattern is a legal kernel sample (NaN scores clamp at
  /// the winsorization bound downstream).
  static void check_codes(const std::vector<float>&) {}
};

template <>
struct FusedSampleTraits<std::int16_t> {
  /// Largest strip (madd blocks accumulated per int32 lane before the
  /// int64 flush) the kernel-code magnitudes provably cannot overflow:
  /// strip * 2 * max|code| * 2^15 <= 2^31 - 1, trace codes assumed
  /// full-range. Narrow kernel grids (12-bit codes -> strip 16) amortize
  /// the widening; worst-case codes collapse to 1 (plain fused_dot_i16).
  static std::size_t compute_strip(const std::vector<std::int16_t>& kr,
                                   const std::vector<std::int16_t>& ki) {
    std::int64_t max_abs = 1;
    for (std::int16_t c : kr) {
      const std::int64_t a = c < 0 ? -std::int64_t{c} : std::int64_t{c};
      max_abs = std::max(max_abs, a);
    }
    for (std::int16_t c : ki) {
      const std::int64_t a = c < 0 ? -std::int64_t{c} : std::int64_t{c};
      max_abs = std::max(max_abs, a);
    }
    const std::int64_t per_block = 2 * max_abs * 32768;
    return static_cast<std::size_t>(
        std::max<std::int64_t>(1, ((std::int64_t{1} << 31) - 1) / per_block));
  }
  static void write_rows(std::ostream& os,
                         const std::vector<std::int16_t>& rows) {
    io::write_vec_i16(os, rows);
  }
  static std::vector<std::int16_t> read_rows(std::istream& is) {
    return io::read_vec_i16(is);
  }
  /// fused_dot_i16's pairwise int16 multiply-add requires kernel codes
  /// != -2^15 — the invariant the builders pin where codes are minted,
  /// re-pinned here on every (untrusted) load.
  static void check_codes(const std::vector<std::int16_t>& rows) {
    for (std::int16_t c : rows)
      MLQR_CHECK_MSG(c > INT16_MIN, "kernel code -32768 is not representable");
  }
};

/// The rotated-kernel SoA both fused front-ends stream: n_filters x
/// n_samples real rows and imaginary rows, contiguous and filter-major so
/// the hot loop reads sequentially.
template <typename Sample>
class FusedKernelTable {
 public:
  using Traits = FusedSampleTraits<Sample>;

  FusedKernelTable() = default;

  /// Zero-filled table of n_filters rows of n_samples each.
  void assign(std::size_t n_filters, std::size_t n_samples) {
    n_samples_ = n_samples;
    kr_.assign(n_filters * n_samples, Sample{});
    ki_.assign(n_filters * n_samples, Sample{});
  }

  std::size_t n_samples() const { return n_samples_; }
  std::size_t row_elements() const { return kr_.size(); }

  Sample* row_r(std::size_t f) { return kr_.data() + f * n_samples_; }
  Sample* row_i(std::size_t f) { return ki_.data() + f * n_samples_; }
  const Sample* row_r(std::size_t f) const {
    return kr_.data() + f * n_samples_;
  }
  const Sample* row_i(std::size_t f) const {
    return ki_.data() + f * n_samples_;
  }

  /// The overflow-safe widening strip (see finalize_strip()).
  std::size_t strip() const { return strip_; }

  /// Recomputes the overflow-safe widening strip from the current codes.
  /// Builders call this once after minting rows through row_r()/row_i();
  /// load_rows() re-derives it itself. Until called, strip_ = 1 (always
  /// safe, just slower).
  void finalize_strip() { strip_ = Traits::compute_strip(kr_, ki_); }

  /// Real rows then imaginary rows, each as one length-prefixed vector —
  /// byte-identical to the layout the front-ends wrote before the table
  /// existed.
  void save_rows(std::ostream& os) const {
    Traits::write_rows(os, kr_);
    Traits::write_rows(os, ki_);
  }

  /// Reads both row tables and re-validates the per-type code invariants.
  /// The caller supplies `n_samples` (already decoded from its own header
  /// field) and cross-checks row_elements() against its filter count —
  /// the table cannot know how many filters the surrounding payload
  /// promised.
  void load_rows(std::istream& is, std::size_t n_samples) {
    n_samples_ = n_samples;
    kr_ = Traits::read_rows(is);
    ki_ = Traits::read_rows(is);
    MLQR_CHECK_MSG(ki_.size() == kr_.size() &&
                       (n_samples_ == 0 || kr_.size() % n_samples_ == 0),
                   "kernel row tables do not match their dims ("
                       << kr_.size() << " vs " << ki_.size() << " elements, "
                       << n_samples_ << " samples per row)");
    Traits::check_codes(kr_);
    Traits::check_codes(ki_);
    finalize_strip();
  }

 private:
  std::size_t n_samples_ = 0;
  std::size_t strip_ = 1;   ///< Widening strip; see finalize_strip().
  std::vector<Sample> kr_;  ///< Re R, n_filters x n_samples, filter-major.
  std::vector<Sample> ki_;  ///< Im R, same layout.
};

}  // namespace mlqr
