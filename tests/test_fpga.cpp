#include <gtest/gtest.h>

#include "common/error.h"
#include "fpga/latency.h"
#include "fpga/power.h"
#include "fpga/resource_model.h"
#include "readout/design_presets.h"

namespace mlqr {
namespace {

TEST(Fpga, DeviceModelMatchesDatasheet) {
  const FpgaDevice dev = FpgaDevice::xczu7ev();
  EXPECT_EQ(dev.luts, 230400u);
  EXPECT_EQ(dev.ffs, 460800u);
  EXPECT_EQ(dev.dsps, 1728u);
}

TEST(Fpga, DenseLayerScalesWithParameters) {
  HlsConfig hls;
  const ResourceEstimate small = estimate_dense_layer(10, 10, hls);
  const ResourceEstimate big = estimate_dense_layer(100, 100, hls);
  EXPECT_GT(big.luts, 50.0 * small.luts / 2.0);
  EXPECT_GT(big.ffs, small.ffs);
}

TEST(Fpga, PrecisionScalesLogic) {
  HlsConfig w8, w16;
  w8.weight_bits = 8;
  w16.weight_bits = 16;
  const auto r8 = estimate_dense_layer(64, 64, w8);
  const auto r16 = estimate_dense_layer(64, 64, w16);
  EXPECT_GT(r16.luts, 1.5 * r8.luts);
}

TEST(Fpga, ReuseMovesWorkToDspAndBram) {
  HlsConfig folded;
  folded.reuse_factor = 16;
  const auto r = estimate_dense_layer(128, 128, folded);
  EXPECT_GT(r.dsps, 0.0);
  EXPECT_GT(r.bram36, 0.0);
  HlsConfig unrolled;
  const auto u = estimate_dense_layer(128, 128, unrolled);
  EXPECT_EQ(u.dsps, 0.0);
  EXPECT_GT(u.luts, r.luts);
}

TEST(Fpga, PaperUtilizationShapeHolds) {
  // The paper's headline resource claims: FNN needs ~60x the proposed
  // design's LUTs (and does not fit), HERQULES ~4x.
  const FpgaDevice dev = FpgaDevice::xczu7ev();
  const auto ours = estimate_design(proposed_design_spec(5, 3, 500));
  const auto herq = estimate_design(herqules_design_spec(5, 3, 500));
  const auto fnn = estimate_design(fnn_design_spec(5, 3, 500));

  const Utilization u_ours = utilization(ours, dev);
  const Utilization u_herq = utilization(herq, dev);
  const Utilization u_fnn = utilization(fnn, dev);

  EXPECT_TRUE(u_ours.fits());
  EXPECT_TRUE(u_herq.fits());
  EXPECT_FALSE(u_fnn.fits());  // >100% LUT, as in Fig 1(d).

  const double fnn_ratio = u_fnn.lut / u_ours.lut;
  const double herq_ratio = u_herq.lut / u_ours.lut;
  EXPECT_GT(fnn_ratio, 30.0);
  EXPECT_LT(fnn_ratio, 120.0);
  EXPECT_GT(herq_ratio, 2.0);
  EXPECT_LT(herq_ratio, 8.0);
  // FF reduction vs HERQULES ("over 5x" in the paper; accept >3x here).
  EXPECT_GT(u_herq.ff / u_ours.ff, 3.0);
}

TEST(Fpga, ModelSizeRatiosMatchPaper) {
  const DesignSpec ours = proposed_design_spec(5, 3, 500);
  const DesignSpec herq = herqules_design_spec(5, 3, 500);
  const DesignSpec fnn = fnn_design_spec(5, 3, 500);
  const double r_fnn = static_cast<double>(fnn.total_nn_parameters()) /
                       ours.total_nn_parameters();
  const double r_herq = static_cast<double>(herq.total_nn_parameters()) /
                        ours.total_nn_parameters();
  EXPECT_GT(r_fnn, 80.0);   // "~100x smaller" claim.
  EXPECT_LT(r_fnn, 150.0);
  EXPECT_GT(r_herq, 4.0);   // "~10x" claim (order of magnitude).
  EXPECT_LT(r_herq, 15.0);
}

TEST(Fpga, ProposedLatencyIsFiveCycles) {
  const DesignSpec ours = proposed_design_spec(5, 3, 500);
  // Per-qubit head 45-22-11-3 fully unrolled: the paper reports a 5-cycle
  // pipeline at 1 GHz; our model counts the NN pipeline the same way.
  const std::size_t nn_only =
      nn_latency_cycles(ours.nns.front(), ours.hls);
  EXPECT_EQ(nn_only, 6u);  // 3 MAC stages + 2 activations + output reg.
  EXPECT_LE(design_latency_cycles(ours), 8u);
}

TEST(Fpga, FoldedFnnIsOrdersOfMagnitudeSlower) {
  const FpgaDevice dev = FpgaDevice::xczu7ev();
  const DesignSpec ours = proposed_design_spec(5, 3, 500);
  const DesignSpec fnn = fnn_folded_design_spec(5, 3, 500, dev);
  EXPECT_GT(design_latency_cycles(fnn), 50 * design_latency_cycles(ours));
  const auto est = estimate_design(fnn);
  EXPECT_LE(utilization(est, dev).dsp, 1.0 + 1e-9);  // Folding fits DSPs.
}

TEST(Fpga, PowerNearPaperOperatingPoint) {
  // The paper quotes 1.561 mW at 1 GHz with a 5-cycle latency — the
  // per-qubit inference module (one 45-22-11-3 head, ~1.3 k MACs).
  DesignSpec head = proposed_design_spec(5, 3, 500);
  head.nns.resize(1);
  head.demod_channels = 0;
  head.matched_filters = 0;
  const PowerEstimate p = estimate_power(head, 5);  // 1 GHz, 45 nm, 8-bit.
  EXPECT_GT(p.total_mw(), 1.0);
  EXPECT_LT(p.total_mw(), 2.2);
  EXPECT_GT(p.dynamic_mw, p.static_mw * 0.5);

  // The whole five-head chip costs ~5x that; the FNN orders of magnitude
  // more MACs per inference.
  const DesignSpec ours = proposed_design_spec(5, 3, 500);
  const PowerEstimate chip = estimate_power(ours, 5);
  EXPECT_GT(chip.total_mw(), 4.0 * p.total_mw());
}

TEST(Fpga, MacEnergyScalesWithPrecisionAndNode) {
  EXPECT_GT(mac_energy_joules(16, 45.0), mac_energy_joules(8, 45.0));
  EXPECT_GT(mac_energy_joules(8, 90.0), mac_energy_joules(8, 45.0));
}

TEST(Fpga, InvalidInputsThrow) {
  HlsConfig hls;
  EXPECT_THROW(estimate_dense_layer(0, 4, hls), Error);
  EXPECT_THROW(mac_energy_joules(0, 45.0), Error);
}

}  // namespace
}  // namespace mlqr
