// SIMD-vs-scalar parity for common/simd.h — the contract the inference
// and training paths rest on. On every compiled tier the host can run:
// integer kernels are bit-exact against the scalar references (exact int64
// accumulators survive any vector reassociation), the float front-end,
// head and training kernels return the scalar reference's float bit for
// bit (one fixed evaluation order per kernel), the trace-code quantizer
// and the feature requant match to_code()'s round-half-even semantics bit
// for bit, and the heads' requant epilogue matches its scalar reference.
// The float references themselves stay within a small relative error of a
// double-precision sum. The scalar references are compiled on every
// platform, so this suite exercises both sides of the dispatch regardless
// of the build's tier; tiers the host cannot run are skipped, not failed.
#include "common/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfenv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fixed_point.h"
#include "common/rng.h"
#include "nn/normalizer.h"

namespace mlqr {
namespace {

// Vector-width tails matter most: cover below/at/above every tier's lane
// count (4, 8, 16, 32 and 64 bytes) plus the production kernel length.
const std::size_t kLengths[] = {0,  1,  3,  4,  7,  8,   15,  16,  17,
                                31, 32, 33, 63, 64, 65, 129, 500};

std::vector<float> random_floats(Rng& rng, std::size_t n, double scale = 1.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, scale));
  return v;
}

/// Random int16 codes in [lo, hi].
std::vector<std::int16_t> random_codes(Rng& rng, std::size_t n, int lo,
                                       int hi) {
  std::vector<std::int16_t> v(n);
  for (std::int16_t& x : v)
    x = static_cast<std::int16_t>(
        lo + static_cast<int>(rng.uniform() * (hi - lo + 1)));
  return v;
}

bool known_tier(const std::string& t) {
  return t == "avx512-vnni" || t == "avx-vnni" || t == "avx2" ||
         t == "sse2" || t == "neon" || t == "scalar";
}

TEST(Simd, TierIsKnown) {
  EXPECT_TRUE(known_tier(simd::tier())) << simd::tier();
  for (const simd::Kernels* k : simd::compiled_tiers())
    EXPECT_TRUE(known_tier(k->name)) << k->name;
}

TEST(Simd, DispatchPicksTheWidestTierTheHostRuns) {
  const auto tiers = simd::compiled_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front()->needs, 0u) << "the base tier must run anywhere";
  const simd::Kernels* best = tiers.front();
  for (const simd::Kernels* k : tiers)
    if (simd::host_runs(*k)) best = k;
  EXPECT_EQ(&simd::kernels(), best);
  EXPECT_STREQ(simd::tier(), best->name);
}

TEST(Simd, ScopedTierPinsAndRestores) {
  const simd::Kernels& before = simd::kernels();
  const simd::Kernels& base = *simd::compiled_tiers().front();
  {
    simd::ScopedTier pin(base);
    EXPECT_EQ(&simd::kernels(), &base);
    EXPECT_STREQ(simd::tier(), base.name);
  }
  EXPECT_EQ(&simd::kernels(), &before);
}

#if defined(MLQR_LIBRARY_FILE)
TEST(Simd, TierObjectsDefineNoSharedSymbolsOutsideTheirNamespace) {
  // A tier object compiled with wider ISA flags must not define any global
  // or weak symbol another object could bind to — above all no copy of an
  // inline function from a shared header, which the linker may pick for a
  // baseline caller. Only the tier's own namespace may appear.
  const std::string cmd =
      std::string("nm -C --defined-only '") + MLQR_LIBRARY_FILE + "' 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string member, tier_ns;
  std::size_t tier_objects = 0, tier_symbols = 0;
  char line[4096];
  while (std::fgets(line, sizeof line, pipe) != nullptr) {
    std::string l(line);
    while (!l.empty() && (l.back() == '\n' || l.back() == '\r')) l.pop_back();
    if (l.size() > 1 && l.back() == ':') {  // "simd_tier_avx2.cpp.o:"
      member = l.substr(0, l.size() - 1);
      const std::size_t at = member.find("simd_tier_");
      tier_ns.clear();
      if (at != std::string::npos) {
        const std::size_t end = member.find('.', at);
        tier_ns = "mlqr::simd::tier_" +
                  member.substr(at + 10, end - at - 10) + "::";
        ++tier_objects;
      }
      continue;
    }
    if (tier_ns.empty()) continue;
    // "<address> <type> <name>"; lower-case types are local, except the
    // weak and unique-global ones.
    const std::size_t sp = l.find(' ');
    if (sp == std::string::npos || sp + 3 > l.size()) continue;
    const char type = l[sp + 1];
    const std::string name = l.substr(sp + 3);
    const bool shared = (type >= 'A' && type <= 'Z' && type != 'U') ||
                        type == 'u' || type == 'v' || type == 'w';
    // Sanitizer and coverage instrumentation emit their own bookkeeping,
    // and unwind tables a weak pointer to the C++ personality routine
    // (data, identical in every object: no code to mix up).
    const bool bookkeeping = name.rfind("__asan", 0) == 0 ||
                             name.rfind("__odr_asan", 0) == 0 ||
                             name.rfind("__sancov", 0) == 0 ||
                             name.rfind("__tsan", 0) == 0 ||
                             name.rfind("DW.ref.", 0) == 0;
    if (!shared || bookkeeping) continue;
    ++tier_symbols;
    EXPECT_EQ(name.rfind(tier_ns, 0), 0u)
        << member << " defines shared symbol '" << name << "' (" << type
        << ") outside " << tier_ns;
  }
  const int status = pclose(pipe);
  if (status != 0 && tier_objects == 0) GTEST_SKIP() << "nm unavailable";
  EXPECT_EQ(tier_objects, simd::compiled_tiers().size());
  EXPECT_EQ(tier_symbols, tier_objects) << "one kernel table per tier";
}
#endif

/// Runs a kernel case once per compiled tier; tiers the host cannot run
/// are skipped.
class SimdTier : public ::testing::TestWithParam<const simd::Kernels*> {
 protected:
  void SetUp() override {
    if (!simd::host_runs(k()))
      GTEST_SKIP() << "host lacks the " << k().name << " instructions";
  }
  const simd::Kernels& k() const { return *GetParam(); }
  static const simd::Kernels& base() {
    return *simd::compiled_tiers().front();
  }
};

INSTANTIATE_TEST_SUITE_P(
    Tiers, SimdTier,
    ::testing::ValuesIn(simd::compiled_tiers().begin(),
                        simd::compiled_tiers().end()),
    [](const ::testing::TestParamInfo<const simd::Kernels*>& info) {
      std::string name = std::to_string(info.index) + "_" + info.param->name;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST_P(SimdTier, DotI16BitExact) {
  Rng rng(11);
  for (std::size_t n : kLengths) {
    // `a` models kernel/weight codes: fit_format keeps them off -2^15.
    const std::vector<std::int16_t> a = random_codes(rng, n, -32767, 32767);
    const std::vector<std::int16_t> b = random_codes(rng, n, -32768, 32767);
    EXPECT_EQ(k().dot_i16(a.data(), b.data(), n),
              simd::dot_i16_scalar(a.data(), b.data(), n))
        << "n=" << n;
  }
}

TEST_P(SimdTier, DotI16ExtremeOperandsBitExact) {
  // Worst case the contract admits: every product is 32767 * -32768 — the
  // most negative reachable madd pair sums, across a length long enough
  // that int32 lane accumulation (if any crept in) would wrap.
  const std::size_t n = 4096;
  std::vector<std::int16_t> a(n, 32767), b(n, -32768);
  EXPECT_EQ(k().dot_i16(a.data(), b.data(), n),
            simd::dot_i16_scalar(a.data(), b.data(), n));
  EXPECT_EQ(k().dot_i16(a.data(), b.data(), n),
            static_cast<std::int64_t>(n) * (32767LL * -32768LL));
  // And the most positive: -32767 * -32768.
  for (auto& x : a) x = -32767;
  EXPECT_EQ(k().dot_i16(a.data(), b.data(), n),
            static_cast<std::int64_t>(n) * (32767LL * 32768LL));
}

TEST_P(SimdTier, FusedDotI16BitExact) {
  Rng rng(12);
  for (std::size_t n : kLengths) {
    const std::vector<std::int16_t> kr = random_codes(rng, n, -32767, 32767);
    const std::vector<std::int16_t> ki = random_codes(rng, n, -32767, 32767);
    const std::vector<std::int16_t> xi = random_codes(rng, n, -32768, 32767);
    const std::vector<std::int16_t> xq = random_codes(rng, n, -32768, 32767);
    EXPECT_EQ(k().fused_dot_i16_strip(kr.data(), ki.data(), xi.data(),
                                      xq.data(), n, 0),
              simd::fused_dot_i16_scalar(kr.data(), ki.data(), xi.data(),
                                         xq.data(), n))
        << "n=" << n;
  }
}

TEST_P(SimdTier, FusedDotI16StripBitExact) {
  // The strip-mined widening must be bit-identical to the scalar loop for
  // every strip the caller contract admits: kernel codes bounded by
  // max_abs, strip * 2 * max_abs * 2^15 <= 2^31 - 1. Cover narrow codes
  // with deep strips, full-range codes (strip collapses to 1), and strips
  // that do not divide the block count.
  Rng rng(21);
  const struct {
    std::int16_t max_abs;
    std::size_t strip;
  } kCases[] = {{2047, 16}, {2047, 7}, {127, 256}, {32767, 1}, {511, 3},
                {16383, 2}};
  for (const auto& c : kCases) {
    for (std::size_t n : kLengths) {
      const std::vector<std::int16_t> kr =
          random_codes(rng, n, -c.max_abs, c.max_abs);
      const std::vector<std::int16_t> ki =
          random_codes(rng, n, -c.max_abs, c.max_abs);
      const std::vector<std::int16_t> xi = random_codes(rng, n, -32768, 32767);
      const std::vector<std::int16_t> xq = random_codes(rng, n, -32768, 32767);
      EXPECT_EQ(k().fused_dot_i16_strip(kr.data(), ki.data(), xi.data(),
                                          xq.data(), n, c.strip),
                simd::fused_dot_i16_scalar(kr.data(), ki.data(), xi.data(),
                                           xq.data(), n))
          << "n=" << n << " strip=" << c.strip << " max_abs=" << c.max_abs;
    }
  }
}

TEST_P(SimdTier, FusedDotI16StripExtremeOperandsBitExact) {
  // Saturate the strip bound exactly: max_abs = 2047 admits strip 16
  // (16 * 2 * 2047 * 32768 = 2146435072 <= 2^31 - 1). Every product at
  // the extreme corner so any premature int32 wrap would show.
  const std::size_t n = 4096;
  std::vector<std::int16_t> kr(n, 2047), ki(n, -2047);
  std::vector<std::int16_t> xi(n, -32768), xq(n, -32768);
  const std::int64_t expect =
      static_cast<std::int64_t>(n) * (2047LL * -32768LL - 2047LL * 32768LL);
  EXPECT_EQ(k().fused_dot_i16_strip(kr.data(), ki.data(), xi.data(),
                                      xq.data(), n, 16),
            expect);
  EXPECT_EQ(k().fused_dot_i16_strip(kr.data(), ki.data(), xi.data(),
                                      xq.data(), n, 16),
            simd::fused_dot_i16_scalar(kr.data(), ki.data(), xi.data(),
                                       xq.data(), n));
  const std::int16_t* xi4[4] = {xi.data(), xi.data(), xi.data(), xi.data()};
  const std::int16_t* xq4[4] = {xq.data(), xq.data(), xq.data(), xq.data()};
  std::int64_t out[4];
  k().fused_dot_i16_strip_x4(kr.data(), ki.data(), xi4, xq4, n, 16, out);
  for (int s = 0; s < 4; ++s) EXPECT_EQ(out[s], expect) << "x4 strip 16";
  // And the full-range corner at strip 1: each madd pair is
  // 2 * 32767 * -32768, one step from int32's edge, so nothing may sum two
  // of them before widening.
  std::fill(kr.begin(), kr.end(), std::int16_t{32767});
  std::fill(ki.begin(), ki.end(), std::int16_t{-32767});
  const std::int64_t wide =
      static_cast<std::int64_t>(n) * (32767LL * -32768LL - 32767LL * 32768LL);
  EXPECT_EQ(k().fused_dot_i16_strip(kr.data(), ki.data(), xi.data(),
                                      xq.data(), n, 1),
            wide);
  k().fused_dot_i16_strip_x4(kr.data(), ki.data(), xi4, xq4, n, 1, out);
  for (int s = 0; s < 4; ++s) EXPECT_EQ(out[s], wide) << "x4 strip 1";
}

TEST_P(SimdTier, FusedDotI16StripX4BitExact) {
  // The four-stream kernel must emit exactly what four scalar calls emit,
  // for deep strips, the shallowest paired strip (2), the full-range
  // direct-widening schedule (strip 0 / 1), and full-range trace codes.
  Rng rng(22);
  const struct {
    std::int16_t max_abs;
    std::size_t strip;
  } kCases[] = {{2047, 16}, {511, 3},    {32767, 1},
                {127, 256}, {16383, 2}, {32767, 0}};
  for (const auto& c : kCases) {
    for (std::size_t n : kLengths) {
      const std::vector<std::int16_t> kr =
          random_codes(rng, n, -c.max_abs, c.max_abs);
      const std::vector<std::int16_t> ki =
          random_codes(rng, n, -c.max_abs, c.max_abs);
      std::vector<std::int16_t> xi[4], xq[4];
      const std::int16_t* xi_ptr[4];
      const std::int16_t* xq_ptr[4];
      for (int s = 0; s < 4; ++s) {
        xi[s] = random_codes(rng, n, -32768, 32767);
        xq[s] = random_codes(rng, n, -32768, 32767);
        xi_ptr[s] = xi[s].data();
        xq_ptr[s] = xq[s].data();
      }
      std::int64_t out[4];
      k().fused_dot_i16_strip_x4(kr.data(), ki.data(), xi_ptr, xq_ptr, n,
                                   c.strip, out);
      for (int s = 0; s < 4; ++s)
        EXPECT_EQ(out[s], simd::fused_dot_i16_scalar(kr.data(), ki.data(),
                                                     xi_ptr[s], xq_ptr[s], n))
            << "n=" << n << " s=" << s << " strip=" << c.strip;
    }
  }
}

/// Floats whose magnitudes span 10^-3 .. 10^3 around `scale`: partial sums
/// of such terms round differently under any other grouping.
std::vector<float> mixed_floats(Rng& rng, std::size_t n, double scale) {
  std::vector<float> v(n);
  for (float& x : v)
    x = static_cast<float>(scale * rng.normal() *
                           std::pow(10.0, 6.0 * rng.uniform() - 3.0));
  return v;
}

std::uint32_t float_bits(float x) { return std::bit_cast<std::uint32_t>(x); }

/// kLengths plus lengths on both sides of the 16-sample block, the 4-sample
/// block and the scalar tail of the float order, and a long row.
std::vector<std::size_t> float_lengths() {
  std::vector<std::size_t> n(std::begin(kLengths), std::end(kLengths));
  n.insert(n.end(), {19, 20, 35, 499, 501, 1100});
  return n;
}

TEST_P(SimdTier, FusedDotF32BitIdenticalToBaseTier) {
  // Every tier computes one evaluation order, so the float must match the
  // base tier (and the scalar reference that spells the order out) bit for
  // bit — not within a relative error. Kernels at two scales against
  // traces of mixed magnitude make any regrouping of the sum visible.
  Rng rng(24);
  for (const double kernel_scale : {1e3, 1e-2}) {
    for (const std::size_t n : float_lengths()) {
      const std::vector<float> kr = mixed_floats(rng, n, kernel_scale);
      const std::vector<float> ki = mixed_floats(rng, n, kernel_scale);
      const std::vector<float> xi = mixed_floats(rng, n, 1.0);
      const std::vector<float> xq = mixed_floats(rng, n, 1.0);
      const float got =
          k().fused_dot_f32(kr.data(), ki.data(), xi.data(), xq.data(), n);
      EXPECT_EQ(float_bits(got),
                float_bits(base().fused_dot_f32(kr.data(), ki.data(),
                                                xi.data(), xq.data(), n)))
          << "n=" << n << " kernel scale " << kernel_scale << " vs "
          << base().name;
      EXPECT_EQ(float_bits(got),
                float_bits(simd::fused_dot_f32_scalar(kr.data(), ki.data(),
                                                      xi.data(), xq.data(), n)))
          << "n=" << n << " kernel scale " << kernel_scale << " vs scalar";
    }
  }
}

TEST_P(SimdTier, FusedDotF32X4MatchesSingleCalls) {
  // Four trace streams against one kernel row: each output is exactly the
  // single-stream kernel's float.
  Rng rng(25);
  for (const double kernel_scale : {1e3, 1e-2}) {
    for (const std::size_t n : float_lengths()) {
      const std::vector<float> kr = mixed_floats(rng, n, kernel_scale);
      const std::vector<float> ki = mixed_floats(rng, n, kernel_scale);
      std::vector<float> xi[4], xq[4];
      const float* xi_ptr[4];
      const float* xq_ptr[4];
      for (int s = 0; s < 4; ++s) {
        xi[s] = mixed_floats(rng, n, 1.0);
        xq[s] = mixed_floats(rng, n, 1.0);
        xi_ptr[s] = xi[s].data();
        xq_ptr[s] = xq[s].data();
      }
      float out[4];
      k().fused_dot_f32_x4(kr.data(), ki.data(), xi_ptr, xq_ptr, n, out);
      for (int s = 0; s < 4; ++s)
        EXPECT_EQ(float_bits(out[s]),
                  float_bits(k().fused_dot_f32(kr.data(), ki.data(), xi_ptr[s],
                                               xq_ptr[s], n)))
            << "n=" << n << " s=" << s << " kernel scale " << kernel_scale;
    }
  }
}

TEST_P(SimdTier, DotU8I8BitExact) {
  Rng rng(15);
  for (std::size_t n : kLengths) {
    std::vector<std::uint8_t> u(n);
    std::vector<std::int8_t> w(n);
    for (auto& x : u)
      x = static_cast<std::uint8_t>(rng.uniform() * 256.0);
    for (auto& x : w)
      x = static_cast<std::int8_t>(-128 + static_cast<int>(rng.uniform() * 256.0));
    EXPECT_EQ(k().dot_u8i8(u.data(), w.data(), n),
              simd::dot_u8i8_scalar(u.data(), w.data(), n))
        << "n=" << n;
  }
}

TEST_P(SimdTier, DotU8I8ExtremeOperandsBitExact) {
  // Worst cases the int8 datapath admits: u = 255 against w = -128 / 127,
  // long enough that a saturating maddubs-style intermediate (the AVX2
  // trap) or int16 lane accumulation would diverge from the exact sum.
  const std::size_t n = 4096;
  std::vector<std::uint8_t> u(n, 255);
  std::vector<std::int8_t> w(n, -128);
  EXPECT_EQ(k().dot_u8i8(u.data(), w.data(), n),
            static_cast<std::int32_t>(n) * (255 * -128));
  EXPECT_EQ(k().dot_u8i8(u.data(), w.data(), n),
            simd::dot_u8i8_scalar(u.data(), w.data(), n));
  for (auto& x : w) x = 127;
  EXPECT_EQ(k().dot_u8i8(u.data(), w.data(), n),
            static_cast<std::int32_t>(n) * (255 * 127));
  EXPECT_EQ(k().dot_u8i8(u.data(), w.data(), n),
            simd::dot_u8i8_scalar(u.data(), w.data(), n));
  // Alternating extremes exercise in-register pair summation order.
  for (std::size_t i = 0; i < n; ++i)
    w[i] = (i & 1) ? std::int8_t{127} : std::int8_t{-128};
  EXPECT_EQ(k().dot_u8i8(u.data(), w.data(), n),
            simd::dot_u8i8_scalar(u.data(), w.data(), n));
}

/// acc[s] = sum_i w[i] * act[i * kLaneShots + s], the lane kernels'
/// definition, for s < nb.
template <typename W, typename A>
std::vector<std::int64_t> lane_reference(const std::vector<W>& w,
                                         const std::vector<A>& act,
                                         std::size_t nb) {
  std::vector<std::int64_t> ref(nb, 0);
  for (std::size_t i = 0; i < w.size(); ++i)
    for (std::size_t s = 0; s < nb; ++s)
      ref[s] += static_cast<std::int64_t>(w[i]) * act[i * simd::kLaneShots + s];
  return ref;
}

TEST_P(SimdTier, LaneDotMatchesReference) {
  // One head output row across a transposed shot block, at the strips the
  // head certifies: 1 at full-range int16 (direct widening), several per
  // row on narrower grids, one covering the row at int8 — for layer widths
  // and shot counts around every vector width.
  Rng rng(23);
  const std::size_t S = simd::kLaneShots;
  for (std::size_t in : {1, 2, 7, 45, 64}) {
    for (std::size_t nb : {1, 3, 4, 5, 8, 31, 32, 33, 127, 128}) {
      std::vector<std::int64_t> acc(S);
      const std::vector<std::int16_t> w16 = random_codes(rng, in, -32767, 32767);
      const std::vector<std::int16_t> a16 =
          random_codes(rng, in * S, -32768, 32767);
      k().lane_dot_i16(w16.data(), in, a16.data(), nb, 1, acc.data());
      const std::vector<std::int64_t> ref16 = lane_reference(w16, a16, nb);
      for (std::size_t s = 0; s < nb; ++s)
        ASSERT_EQ(acc[s], ref16[s]) << "int16 strip 1 in=" << in << " s=" << s;
      // 12-bit codes: 2^11 * 2^11 per product certifies strip 511.
      const std::vector<std::int16_t> w12 = random_codes(rng, in, -2047, 2047);
      const std::vector<std::int16_t> a12 = random_codes(rng, in * S, -2048, 2047);
      const std::vector<std::int64_t> ref12 = lane_reference(w12, a12, nb);
      for (std::size_t strip : {2, 3, 511}) {
        k().lane_dot_i16(w12.data(), in, a12.data(), nb, strip, acc.data());
        for (std::size_t s = 0; s < nb; ++s)
          ASSERT_EQ(acc[s], ref12[s])
              << "int16 strip " << strip << " in=" << in << " s=" << s;
      }
      std::vector<std::int8_t> w8(in);
      std::vector<std::uint8_t> a8(in * S);
      for (auto& x : w8)
        x = static_cast<std::int8_t>(-127 + static_cast<int>(rng.uniform() * 255.0));
      for (auto& x : a8) x = static_cast<std::uint8_t>(rng.uniform() * 256.0);
      const std::vector<std::int64_t> ref8 = lane_reference(w8, a8, nb);
      for (std::size_t strip : {1, 7, 65535}) {
        k().lane_dot_u8i8(w8.data(), in, a8.data(), nb, strip, acc.data());
        for (std::size_t s = 0; s < nb; ++s)
          ASSERT_EQ(acc[s], ref8[s])
              << "int8 strip " << strip << " in=" << in << " s=" << s;
      }
    }
  }
}

TEST_P(SimdTier, LaneDotExtremeOperandsBitExact) {
  // Every product at the int16 corner (32767 * -32768): two of them already
  // leave int32, so strip 1 must widen each one.
  const std::size_t S = simd::kLaneShots;
  const std::size_t in = 96;
  const std::vector<std::int16_t> w(in, 32767);
  const std::vector<std::int16_t> act(in * S, -32768);
  std::vector<std::int64_t> acc(S);
  k().lane_dot_i16(w.data(), in, act.data(), S, 1, acc.data());
  for (std::size_t s = 0; s < S; ++s)
    ASSERT_EQ(acc[s], static_cast<std::int64_t>(in) * (32767LL * -32768LL));
  // int8 corner: u = 255 against w = -127 across the widest strip.
  const std::vector<std::int8_t> w8(in, -127);
  const std::vector<std::uint8_t> a8(in * S, 255);
  k().lane_dot_u8i8(w8.data(), in, a8.data(), S, 65535, acc.data());
  for (std::size_t s = 0; s < S; ++s)
    ASSERT_EQ(acc[s], static_cast<std::int64_t>(in) * (255 * -127));
}

TEST(Simd, DotF32WithinRelativeError) {
  Rng rng(13);
  for (std::size_t n : kLengths) {
    const std::vector<float> a = random_floats(rng, n);
    const std::vector<float> b = random_floats(rng, n);
    double ref = 0.0;
    double abs_sum = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      ref += static_cast<double>(a[i]) * b[i];
      abs_sum += std::abs(static_cast<double>(a[i]) * b[i]);
    }
    // The reference is the float every tier returns (Dot4MatchesSingleDots).
    EXPECT_NEAR(simd::dot_f32_scalar(a.data(), b.data(), n), ref,
                1e-5 * abs_sum)
        << "n=" << n;
  }
}

TEST(Simd, FusedDotF32WithinRelativeError) {
  Rng rng(14);
  for (std::size_t n : kLengths) {
    const std::vector<float> kr = random_floats(rng, n);
    const std::vector<float> ki = random_floats(rng, n);
    const std::vector<float> xi = random_floats(rng, n);
    const std::vector<float> xq = random_floats(rng, n);
    double ref = 0.0, abs_sum = 1.0;
    for (std::size_t t = 0; t < n; ++t) {
      const double term = static_cast<double>(kr[t]) * xi[t] -
                          static_cast<double>(ki[t]) * xq[t];
      ref += term;
      abs_sum += std::abs(static_cast<double>(kr[t]) * xi[t]) +
                 std::abs(static_cast<double>(ki[t]) * xq[t]);
    }
    const double tol = 1e-5 * abs_sum;
    EXPECT_NEAR(simd::kernels().fused_dot_f32(kr.data(), ki.data(), xi.data(),
                                              xq.data(), n),
                ref, tol)
        << "n=" << n;
    EXPECT_NEAR(simd::fused_dot_f32_scalar(kr.data(), ki.data(), xi.data(),
                                           xq.data(), n),
                ref, tol)
        << "n=" << n;
  }
}

TEST_P(SimdTier, Dot4MatchesSingleDots) {
  // dot4_f32 is four dot_f32_scalar calls sharing one operand, bit for
  // bit: inputs of mixed magnitude make any regrouping of the sum visible.
  Rng rng(16);
  for (const std::size_t n : kLengths) {
    const std::vector<float> s = mixed_floats(rng, n, 1.0);
    std::vector<float> b[4];
    for (std::vector<float>& row : b) row = mixed_floats(rng, n, 1.0);
    float out[4];
    k().dot4_f32(s.data(), b[0].data(), b[1].data(), b[2].data(), b[3].data(),
                 n, out);
    float ref[4];
    simd::dot4_f32_scalar(s.data(), b[0].data(), b[1].data(), b[2].data(),
                          b[3].data(), n, ref);
    for (int r = 0; r < 4; ++r) {
      const float single = simd::dot_f32_scalar(s.data(), b[r].data(), n);
      EXPECT_EQ(float_bits(out[r]), float_bits(single))
          << "dot4 n=" << n << " r=" << r;
      EXPECT_EQ(float_bits(ref[r]), float_bits(single))
          << "dot4 reference n=" << n << " r=" << r;
    }
  }
}

TEST_P(SimdTier, AxpyVariantsMatchScalar) {
  // The GEMM row updates, bit for bit, with a zero coefficient among the
  // four: axpy4's whole 4-blocks and its n % 4 tail sum in different
  // orders, so a tier that moves the boundary shows.
  Rng rng(15);
  for (const std::size_t n : kLengths) {
    const std::vector<float> x[4] = {
        mixed_floats(rng, n, 1.0), mixed_floats(rng, n, 1.0),
        mixed_floats(rng, n, 1.0), mixed_floats(rng, n, 1.0)};
    const std::vector<float> y0 = mixed_floats(rng, n, 1.0);
    const float a[4] = {0.5f, -1.25f, 2.0f, 0.0f};
    std::vector<float> got = y0, want = y0;
    k().axpy_f32(n, a[1], x[0].data(), got.data());
    simd::axpy_f32_scalar(n, a[1], x[0].data(), want.data());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(float_bits(got[i]), float_bits(want[i]))
          << "axpy n=" << n << " i=" << i;
    got = y0;
    want = y0;
    k().axpy4_f32(n, a, x[0].data(), x[1].data(), x[2].data(), x[3].data(),
                  got.data());
    simd::axpy4_f32_scalar(n, a, x[0].data(), x[1].data(), x[2].data(),
                           x[3].data(), want.data());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(float_bits(got[i]), float_bits(want[i]))
          << "axpy4 n=" << n << " i=" << i;
  }
}

/// Equal bits, or both NaN: which NaN payload a sum with two NaN operands
/// keeps depends on the operand order a compiler picks.
bool same_float(float a, float b) {
  return (std::isnan(a) && std::isnan(b)) || float_bits(a) == float_bits(b);
}

TEST_P(SimdTier, LaneDotF32MatchesScalar) {
  // One float head layer's output row across a transposed shot block, bit
  // for bit against the reference: shot counts around every tier's vector
  // and two-vector pass widths, layer widths on both sides of the 4-block,
  // mixed magnitudes so any regrouping of a lane's sum shows, and -0, NaN
  // and +-inf operands. The reference is dot_f32_scalar per shot plus the
  // bias, and logits_into's ReLU on hidden layers.
  const std::size_t S = simd::kLaneShots;
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const float kUnwritten = 7.0f;
  Rng rng(24);
  for (const std::size_t in : {1, 2, 3, 4, 5, 11, 22, 45}) {
    for (const std::size_t nb : {1, 15, 16, 17, 31, 32, 33, 127, 128}) {
      std::vector<float> w = mixed_floats(rng, in, 1.0);
      std::vector<float> act = mixed_floats(rng, in * S, 1.0);
      w[in / 2] = -0.0f;
      for (std::size_t s = 0; s < S; ++s) {
        const std::size_t i = s % in;
        switch (s % 9) {
          case 3: act[i * S + s] = -0.0f; break;
          case 4: act[i * S + s] = kNaN; break;
          case 5: act[i * S + s] = kInf; break;
          case 6: act[i * S + s] = -kInf; break;
          case 7:  // inf - inf: a NaN the lane makes itself.
            act[i * S + s] = kInf;
            act[((i + 1) % in) * S + s] = in > 1 ? -kInf : kInf;
            break;
          default: break;
        }
      }
      for (const float bias : {static_cast<float>(rng.normal()), -0.0f}) {
        for (const bool relu : {false, true}) {
          std::vector<float> got(S, kUnwritten), want(S, kUnwritten);
          k().lane_dot_f32(w.data(), in, bias, act.data(), nb, relu,
                           got.data());
          simd::lane_dot_f32_scalar(w.data(), in, bias, act.data(), nb, relu,
                                    want.data());
          std::vector<float> column(in);
          for (std::size_t s = 0; s < S; ++s) {
            if (s >= nb) {
              ASSERT_EQ(float_bits(got[s]), float_bits(kUnwritten))
                  << "wrote lane " << s << " in=" << in << " nb=" << nb;
              continue;
            }
            ASSERT_TRUE(same_float(got[s], want[s]))
                << "in=" << in << " nb=" << nb << " s=" << s << " relu "
                << relu << ": " << got[s] << " vs " << want[s];
            for (std::size_t i = 0; i < in; ++i) column[i] = act[i * S + s];
            const float z =
                simd::dot_f32_scalar(w.data(), column.data(), in) + bias;
            ASSERT_TRUE(same_float(want[s], !relu ? z : z > 0.0f ? z : 0.0f))
                << "reference in=" << in << " nb=" << nb << " s=" << s;
            if (relu) {
              ASSERT_FALSE(std::signbit(got[s]) || std::isnan(got[s]));
            }
          }
        }
      }
    }
  }
}

TEST_P(SimdTier, QuantizeCodesMatchesToCode) {
  // The vector quantizer must reproduce to_code()'s round-half-even and
  // saturation exactly (under the default FP environment, which the
  // caller guards). Mix normal values, halfway ties and out-of-range
  // saturating values.
  const FixedPointFormat fmt{16, 10};
  const double scale = std::ldexp(1.0, fmt.frac_bits);
  Rng rng(17);
  for (std::size_t n : kLengths) {
    std::vector<float> x = random_floats(rng, n, 8.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 5 == 1) {  // Exact halfway tie on the code grid.
        const double code = std::floor(rng.uniform() * 100.0) - 50.0;
        x[i] = static_cast<float>((code + 0.5) / scale);
      } else if (i % 5 == 2) {  // Saturates.
        x[i] = (rng.uniform() < 0.5 ? -1.0f : 1.0f) * 1e6f;
      }
    }
    std::vector<std::int16_t> fast(n), slow(n);
    k().quantize_codes_i16(x.data(), n, scale,
                             static_cast<std::int32_t>(fmt.min_code()),
                             static_cast<std::int32_t>(fmt.max_code()),
                             fast.data());
    simd::quantize_codes_i16_scalar(x.data(), n, scale,
                                    static_cast<std::int32_t>(fmt.min_code()),
                                    static_cast<std::int32_t>(fmt.max_code()),
                                    slow.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(fast[i], slow[i]) << "n=" << n << " i=" << i << " x=" << x[i];
      EXPECT_EQ(slow[i], static_cast<std::int16_t>(
                             to_code(static_cast<double>(x[i]), fmt)))
          << "n=" << n << " i=" << i << " x=" << x[i];
    }
  }
}

/// to_code(clamp(double(acc) * scale + offset, +-kMaxAbsFeatureZ), fmt):
/// the integer front-end's requant, spelled with the library's semantics.
std::int32_t feature_code(std::int64_t acc, double scale, double offset,
                          const FixedPointFormat& fmt) {
  const double bound = static_cast<double>(kMaxAbsFeatureZ);
  const double z =
      std::clamp(static_cast<double>(acc) * scale + offset, -bound, bound);
  return static_cast<std::int32_t>(to_code(z, fmt));
}

TEST_P(SimdTier, RequantFeaturesMatchesToCode) {
  // Every tail length; exact half-code ties; values past the z bound and
  // past the code bounds (an 8-bit grid saturates inside +-kMaxAbsFeatureZ,
  // a 16-bit one only at it); the largest sum the front-end can produce,
  // 500 samples x 2 products x 2^15 x 2^15; and sums beyond 2^53, where
  // the conversion must round as the scalar one does.
  const std::int64_t kMaxAcc = 500LL * 2 * 32768 * 32768;
  Rng rng(31);
  for (const FixedPointFormat fmt :
       {FixedPointFormat{16, 11}, FixedPointFormat{8, 4}}) {
    const double code_scale = std::ldexp(1.0, fmt.frac_bits);
    // Scale 2^-(F+1) with offsets on the same grid makes z * 2^F a
    // multiple of 1/2: every odd numerator is an exact tie.
    const double tie_scale = std::ldexp(1.0, -fmt.frac_bits - 1);
    for (const std::size_t n : kLengths) {
      std::vector<std::int64_t> acc(n);
      std::vector<double> scale(n), offset(n);
      for (std::size_t f = 0; f < n; ++f) {
        switch (f % 6) {
          case 0:  // Ordinary sums.
            acc[f] = static_cast<std::int64_t>(rng.normal(0.0, 1e9));
            scale[f] = 1e-9 * (0.5 + rng.uniform());
            offset[f] = rng.normal(0.0, 2.0);
            break;
          case 1:  // Exact ties of both parities, and odd offsets.
            acc[f] = static_cast<std::int64_t>(rng.uniform_index(4001)) - 2000;
            scale[f] = tie_scale;
            offset[f] = tie_scale *
                        (static_cast<double>(rng.uniform_index(9)) - 4.0);
            break;
          case 2:  // Past the z bound on either side.
            acc[f] = static_cast<std::int64_t>(rng.normal(0.0, 1e11));
            scale[f] = 1e-9;
            offset[f] = 0.0;
            break;
          case 3:  // The front-end's extreme sums.
            acc[f] = (f % 4 == 3 ? kMaxAcc : -kMaxAcc) +
                     static_cast<std::int64_t>(rng.uniform_index(3)) - 1;
            scale[f] = 1.1e-11;
            offset[f] = rng.normal(0.0, 0.1);
            break;
          case 4:  // Beyond 2^53: the int64 -> double conversion rounds.
            acc[f] = static_cast<std::int64_t>(rng() >> 1) *
                     (f % 4 == 0 ? 1 : -1);
            scale[f] = std::ldexp(1.0, -60);
            offset[f] = 0.0;
            break;
          default:  // Between the grids' bounds: 7.9 < |z| < 12.
            acc[f] = static_cast<std::int64_t>(rng.normal(0.0, 1.0) * 1e6);
            scale[f] = 1e-6;
            offset[f] = (rng.uniform() < 0.5 ? -1.0 : 1.0) * 10.0;
        }
      }
      std::vector<std::int32_t> fast(n + 1, -7), slow(n + 1, -7);
      const auto run = [&](auto requant, std::vector<std::int32_t>& out) {
        requant(acc.data(), n, scale.data(), offset.data(),
                static_cast<double>(kMaxAbsFeatureZ), code_scale,
                static_cast<std::int32_t>(fmt.min_code()),
                static_cast<std::int32_t>(fmt.max_code()), out.data());
      };
      run(k().requant_features, fast);
      run(simd::requant_features_scalar, slow);
      for (std::size_t f = 0; f < n; ++f) {
        const std::int32_t want = feature_code(acc[f], scale[f], offset[f], fmt);
        EXPECT_EQ(fast[f], want) << "n=" << n << " f=" << f << " acc=" << acc[f]
                                 << " W=" << fmt.total_bits;
        EXPECT_EQ(slow[f], want) << "n=" << n << " f=" << f << " acc=" << acc[f]
                                 << " W=" << fmt.total_bits << " (scalar)";
      }
      EXPECT_EQ(fast[n], -7) << "wrote past n=" << n;
    }
  }
}

TEST_P(SimdTier, RequantLanesMatchScalar) {
  // A head layer's epilogue over every shot count of a lane block: shifts
  // left, none and right, with exact halves of both quotient parities;
  // sums that saturate the accumulator and codes that saturate the
  // activation grid; both activation widths, and on the last layer both
  // logit widths.
  const std::size_t S = simd::kLaneShots;
  Rng rng(32);
  const struct {
    int accum_bits;
    int shift;
    int act_bits;
  } kCases[] = {{32, 12, 16}, {32, 1, 8},  {24, 0, 8},  {32, -3, 16},
                {48, 20, 12}, {63, 40, 16}, {31, 9, 6},  {20, 5, 8}};
  for (const auto& c : kCases) {
    const std::int64_t acc_max = (std::int64_t{1} << (c.accum_bits - 1)) - 1;
    for (std::size_t nb = 1; nb <= S; ++nb) {
      const std::int64_t init = static_cast<std::int64_t>(
          rng.normal(0.0, static_cast<double>(acc_max) / 64));
      std::vector<std::int64_t> acc(S);
      for (std::size_t s = 0; s < nb; ++s) {
        std::int64_t a;  // The value init + acc[s] should take.
        switch (s % 5) {
          case 0:  // Past the accumulator bounds.
            a = (s % 2 ? acc_max : -acc_max) +
                static_cast<std::int64_t>(rng.uniform_index(1000));
            break;
          case 1:
          case 2:  // Exact halves: q * 2^shift + 2^(shift - 1), q odd / even.
            if (c.shift > 0) {
              const std::int64_t q =
                  2 * static_cast<std::int64_t>(rng.uniform_index(1000)) +
                  static_cast<std::int64_t>(s % 5 == 1);
              a = (q << c.shift) + (std::int64_t{1} << (c.shift - 1));
              break;
            }
            [[fallthrough]];
          default:  // Anywhere in range, activation saturation included.
            a = static_cast<std::int64_t>(
                (2.0 * rng.uniform() - 1.0) * static_cast<double>(acc_max));
        }
        acc[s] = a - init;
      }
      const auto check = [&](auto kernel, auto reference, auto* act_tag,
                             auto* logit_tag, bool last, const char* what) {
        using Act = std::remove_pointer_t<decltype(act_tag)>;
        using Logit = std::remove_pointer_t<decltype(logit_tag)>;
        std::vector<Act> act_fast(S, Act{7}), act_slow(S, Act{7});
        std::vector<Logit> logit_fast(S, 7), logit_slow(S, 7);
        kernel(acc.data(), nb, init, c.accum_bits, c.shift, c.act_bits,
               last ? nullptr : act_fast.data(),
               last ? logit_fast.data() : nullptr);
        reference(acc.data(), nb, init, c.accum_bits, c.shift, c.act_bits,
                  last ? nullptr : act_slow.data(),
                  last ? logit_slow.data() : nullptr);
        EXPECT_EQ(act_fast, act_slow)
            << what << " nb=" << nb << " accum " << c.accum_bits << " shift "
            << c.shift << " act " << c.act_bits;
        EXPECT_EQ(logit_fast, logit_slow)
            << what << " nb=" << nb << " accum " << c.accum_bits;
      };
      if (c.act_bits <= 16) {
        check(k().requant_lanes_i16, simd::requant_lanes_i16_scalar,
              static_cast<std::int16_t*>(nullptr),
              static_cast<std::int64_t*>(nullptr), false, "int16 act");
        check(k().requant_lanes_i16, simd::requant_lanes_i16_scalar,
              static_cast<std::int16_t*>(nullptr),
              static_cast<std::int64_t*>(nullptr), true, "int64 logit");
      }
      if (c.act_bits <= 8)
        check(k().requant_lanes_u8, simd::requant_lanes_u8_scalar,
              static_cast<std::uint8_t*>(nullptr),
              static_cast<std::int32_t*>(nullptr), false, "uint8 act");
      if (c.accum_bits <= 32)
        check(k().requant_lanes_u8, simd::requant_lanes_u8_scalar,
              static_cast<std::uint8_t*>(nullptr),
              static_cast<std::int32_t*>(nullptr), true, "int32 logit");
    }
  }
}

TEST(Simd, RequantLanesScalarIsThePerShotChain) {
  // The reference against fixed_point.h's per-shot chain, which the
  // integer heads' logits_into runs.
  Rng rng(33);
  const std::int64_t init = -12345;
  std::vector<std::int64_t> acc(64);
  for (std::int64_t& a : acc)
    a = static_cast<std::int64_t>(rng.normal(0.0, 1e9));
  std::vector<std::int16_t> act(acc.size());
  std::vector<std::uint8_t> act8(acc.size());
  simd::requant_lanes_i16_scalar(acc.data(), acc.size(), init, 32, 14, 16,
                                 act.data(), nullptr);
  simd::requant_lanes_u8_scalar(acc.data(), acc.size(), init, 32, 20, 8,
                                act8.data(), nullptr);
  for (std::size_t s = 0; s < acc.size(); ++s) {
    const std::int64_t a =
        std::max<std::int64_t>(saturate_to_bits(init + acc[s], 32), 0);
    EXPECT_EQ(act[s], saturate_to_bits(shift_round_half_even(a, 14), 16));
    EXPECT_EQ(act8[s], saturate_to_bits(shift_round_half_even(a, 20), 8) + 128);
  }
}

TEST(Simd, QuantizeCodesScalarIsRoundingModeImmune) {
  // The scalar twin is the fallback the front-end selects when the FP
  // environment is not round-to-nearest; it must match to_code in every
  // mode (the vector path is never invoked there, so it has no such
  // obligation).
  const FixedPointFormat fmt{16, 8};
  const double scale = std::ldexp(1.0, fmt.frac_bits);
  const float x[] = {0.12345f, -3.5f / 256.0f, 2.5f / 256.0f, 200.0f,
                     -200.0f};
  const std::size_t n = sizeof(x) / sizeof(x[0]);
  std::int16_t nearest[n], upward[n];
  simd::quantize_codes_i16_scalar(x, n, scale,
                                  static_cast<std::int32_t>(fmt.min_code()),
                                  static_cast<std::int32_t>(fmt.max_code()),
                                  nearest);
  ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
  simd::quantize_codes_i16_scalar(x, n, scale,
                                  static_cast<std::int32_t>(fmt.min_code()),
                                  static_cast<std::int32_t>(fmt.max_code()),
                                  upward);
  ASSERT_EQ(std::fesetround(FE_TONEAREST), 0);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(nearest[i], upward[i]) << i;
}

}  // namespace
}  // namespace mlqr
