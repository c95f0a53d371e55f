#include "fpga/resource_model.h"

#include <cmath>

#include "common/error.h"

namespace mlqr {

namespace {
// Calibration constants (see header). Fitted against the paper's reported
// utilizations of the three designs on the xczu7ev:
//   - kLutPerParamBit: logic cost of a fully-unrolled constant-coefficient
//     multiply-accumulate, per weight bit (~1.4 LUT/param at 8 bits).
//   - kLutPerNeuron: bias add + activation + routing per neuron.
//   - kLutPerLayer: dataflow control overhead per layer instance.
//   - kFfPerParamBit: pipeline registers through the MAC array.
constexpr double kLutPerParamBit = 0.175;
constexpr double kLutPerNeuron = 10.0;
constexpr double kLutPerLayer = 280.0;
constexpr double kFfPerParamBit = 0.15;
constexpr double kFfPerNeuron = 12.0;
constexpr double kFfPerLayer = 80.0;
constexpr double kBramBitsPer36k = 36.0 * 1024.0;
}  // namespace

FpgaDevice FpgaDevice::xczu7ev() {
  return {"xczu7ev-ffvc1156-2-i", 230400, 460800, 312, 1728};
}

ResourceEstimate& ResourceEstimate::operator+=(const ResourceEstimate& other) {
  luts += other.luts;
  ffs += other.ffs;
  bram36 += other.bram36;
  dsps += other.dsps;
  return *this;
}

ResourceEstimate estimate_dense_layer(std::size_t in, std::size_t out,
                                      const HlsConfig& cfg) {
  MLQR_CHECK(in > 0 && out > 0);
  MLQR_CHECK(cfg.weight_bits >= 2 && cfg.weight_bits <= 32);
  MLQR_CHECK(cfg.reuse_factor >= 1);
  const double params = static_cast<double>(in * out + out);
  const double neurons = static_cast<double>(out);

  ResourceEstimate r;
  if (cfg.reuse_factor > 1) {
    // Time-multiplexed MAC array on DSP slices, weights streamed from BRAM.
    const double macs = static_cast<double>(in) * static_cast<double>(out);
    r.dsps = std::ceil(macs / static_cast<double>(cfg.reuse_factor));
    r.luts = r.dsps * 12.0 + neurons * kLutPerNeuron + kLutPerLayer;
    r.ffs = r.dsps * 40.0 + neurons * kFfPerNeuron + kFfPerLayer;
    r.bram36 = std::ceil(params * cfg.weight_bits / kBramBitsPer36k);
  } else {
    // Fully unrolled: constant multipliers in fabric, no DSP/BRAM.
    r.luts = params * cfg.weight_bits * kLutPerParamBit +
             neurons * kLutPerNeuron + kLutPerLayer;
    r.ffs = params * cfg.weight_bits * kFfPerParamBit +
            neurons * kFfPerNeuron + kFfPerLayer;
  }
  return r;
}

ResourceEstimate estimate_matched_filter(std::size_t kernel_len,
                                         const HlsConfig& cfg) {
  MLQR_CHECK(kernel_len > 0);
  ResourceEstimate r;
  // One streaming complex MAC (I/Q interleaved on a DSP pair) + control.
  r.dsps = 2.0;
  r.luts = 100.0;
  r.ffs = 80.0;
  // Complex kernel coefficients, double-buffered.
  r.bram36 =
      std::ceil(static_cast<double>(kernel_len) * 2.0 * cfg.weight_bits * 2.0 /
                kBramBitsPer36k);
  return r;
}

ResourceEstimate estimate_demodulator_channel() {
  ResourceEstimate r;
  r.dsps = 2.0;  // Two FMA units (paper footnote 1).
  r.luts = 60.0;
  r.ffs = 80.0;
  r.bram36 = 0.25;  // NCO phase table (shared 18k quarter).
  return r;
}

std::size_t DesignSpec::total_nn_parameters() const {
  std::size_t total = 0;
  for (const auto& sizes : nns) {
    MLQR_CHECK(sizes.size() >= 2);
    for (std::size_t l = 0; l + 1 < sizes.size(); ++l)
      total += sizes[l] * sizes[l + 1] + sizes[l + 1];
  }
  return total;
}

ResourceEstimate estimate_design(const DesignSpec& spec) {
  ResourceEstimate total;
  for (std::size_t c = 0; c < spec.demod_channels; ++c)
    total += estimate_demodulator_channel();
  for (std::size_t f = 0; f < spec.matched_filters; ++f)
    total += estimate_matched_filter(spec.mf_kernel_len, spec.hls);
  for (const auto& sizes : spec.nns) {
    MLQR_CHECK(sizes.size() >= 2);
    for (std::size_t l = 0; l + 1 < sizes.size(); ++l)
      total += estimate_dense_layer(sizes[l], sizes[l + 1], spec.hls);
  }
  return total;
}

Utilization utilization(const ResourceEstimate& est, const FpgaDevice& dev) {
  MLQR_CHECK(dev.luts > 0 && dev.ffs > 0 && dev.bram36 > 0 && dev.dsps > 0);
  Utilization u;
  u.lut = est.luts / static_cast<double>(dev.luts);
  u.ff = est.ffs / static_cast<double>(dev.ffs);
  u.bram = est.bram36 / static_cast<double>(dev.bram36);
  u.dsp = est.dsps / static_cast<double>(dev.dsps);
  return u;
}

}  // namespace mlqr
