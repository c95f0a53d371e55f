// hls4ml-style FPGA resource estimation (paper SSVI "FPGA Hardware",
// Fig 1(d), Fig 5(a)).
//
// Stand-in for the paper's hls4ml + Vivado HLS flow (DESIGN.md SS1): a
// first-order analytic model of a dataflow NN accelerator plus streaming
// matched-filter front-end. Calibration constants are fitted to the
// published utilization endpoints (FNN ~420% LUT of an xczu7ev, HERQULES
// ~28%, proposed ~7%) so the *ratios* — the paper's actual claims — emerge
// from parameter counts and precision, not from hard-coded outputs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nn/mlp.h"

namespace mlqr {

/// FPGA device capacity (Xilinx Zynq UltraScale+ xczu7ev-ffvc1156-2-i —
/// the paper's target part).
struct FpgaDevice {
  std::string name;
  std::size_t luts = 0;
  std::size_t ffs = 0;
  std::size_t bram36 = 0;
  std::size_t dsps = 0;

  static FpgaDevice xczu7ev();
};

/// HLS implementation knobs (mirrors the hls4ml precision / reuse options).
struct HlsConfig {
  int weight_bits = 8;   ///< Fixed-point weight width.
  /// 1 = fully unrolled multiplies; > 1 time-multiplexes the MACs on DSP
  /// slices and streams the weights from BRAM.
  int reuse_factor = 1;
};

/// Absolute resource counts for a block or a whole design.
struct ResourceEstimate {
  double luts = 0.0;
  double ffs = 0.0;
  double bram36 = 0.0;
  double dsps = 0.0;

  ResourceEstimate& operator+=(const ResourceEstimate& other);
};

/// Fractional utilization against a device (1.0 = 100%).
struct Utilization {
  double lut = 0.0;
  double ff = 0.0;
  double bram = 0.0;
  double dsp = 0.0;

  bool fits() const {
    return lut <= 1.0 && ff <= 1.0 && bram <= 1.0 && dsp <= 1.0;
  }
};

/// One dense layer (in x out MACs + bias + activation).
ResourceEstimate estimate_dense_layer(std::size_t in, std::size_t out,
                                      const HlsConfig& cfg);

/// A streaming matched-filter engine: one complex MAC running at the ADC
/// rate plus kernel coefficient storage.
ResourceEstimate estimate_matched_filter(std::size_t kernel_len,
                                         const HlsConfig& cfg);

/// Digital down-conversion for one channel (two FMA units + NCO).
ResourceEstimate estimate_demodulator_channel();

/// Complete readout-discriminator design: optional DSP front-end
/// (demodulators + matched filters) and one or more NNs.
struct DesignSpec {
  std::string name;
  std::size_t demod_channels = 0;
  std::size_t matched_filters = 0;
  std::size_t mf_kernel_len = 0;
  /// Layer size lists, one per NN instance (the proposed design has one
  /// small NN per qubit).
  std::vector<std::vector<std::size_t>> nns;
  HlsConfig hls;

  std::size_t total_nn_parameters() const;
};

ResourceEstimate estimate_design(const DesignSpec& spec);
Utilization utilization(const ResourceEstimate& est, const FpgaDevice& dev);

}  // namespace mlqr
