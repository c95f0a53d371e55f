// Ablation: the real integer datapath vs the float reference, swept over
// code width (Fig 5(a) / Table V's resource-vs-fidelity story). Unlike the
// old version of this bench — which rounded float weights and re-ran the
// float kernels — every row below runs the fused int16 front-end and the
// integer per-qubit heads end-to-end (QuantizedProposedDiscriminator), and
// the resource column uses the formats that calibration actually picked.
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/fixed_point.h"
#include "discrim/quantized_proposed.h"
#include "fpga/resource_model.h"

int main() {
  using namespace mlqr;
  using namespace mlqr::bench;

  DatasetConfig dcfg;
  dcfg.shots_per_basis_state = fast_scaled(default_shots_per_state(), 6, 60);
  std::cout << "[ablation_quantization] generating dataset...\n";
  const ReadoutDataset ds = generate_dataset(dcfg);

  ProposedConfig cfg;
  const ProposedDiscriminator trained = ProposedDiscriminator::train(
      ds.shots, ds.training_labels, ds.train_idx, ds.chip, cfg);
  const FidelityReport base = evaluate_on_test(make_backend(trained), ds);
  const FpgaDevice dev = FpgaDevice::xczu7ev();

  // Two knobs, reported separately: weight/kernel width with activations
  // held at 16 bits (the paper's deployment axis — Table V assumes 8-bit
  // weights) and the fully-quantized datapath where activations shrink
  // alongside (the harsher, honest variant).
  Table table("Ablation — integer datapath width vs the float reference");
  table.set_header({"Weights", "F5Q (act=16)", "Delta", "F5Q (act=W)", "Delta",
                    "LUT%"});
  table.add_row({"float32", Table::num(base.geometric_mean_fidelity()), "-",
                 Table::num(base.geometric_mean_fidelity()), "-", "-"});

  for (int bits : {16, 12, 10, 8, 6}) {
    QuantizationConfig wide_act;
    wide_act.weight_bits = bits;
    QuantizationConfig narrow_act = wide_act;
    narrow_act.activation_bits = bits;
    const bool same_cfg = narrow_act.activation_bits == wide_act.activation_bits;
    const QuantizedProposedDiscriminator qw =
        QuantizedProposedDiscriminator::quantize(trained, ds.shots,
                                                 ds.train_idx, wide_act);
    const FidelityReport rw = evaluate_on_test(make_backend(qw), ds);
    FidelityReport rn = rw;
    if (!same_cfg) {
      const QuantizedProposedDiscriminator qn =
          QuantizedProposedDiscriminator::quantize(trained, ds.shots,
                                                   ds.train_idx, narrow_act);
      rn = evaluate_on_test(make_backend(qn), ds);
    }
    const Utilization u = utilization(estimate_design(qw.design_spec()), dev);
    table.add_row(
        {"int W=" + std::to_string(bits),
         Table::num(rw.geometric_mean_fidelity()),
         Table::num(rw.geometric_mean_fidelity() -
                        base.geometric_mean_fidelity(),
                    4),
         Table::num(rn.geometric_mean_fidelity()),
         Table::num(rn.geometric_mean_fidelity() -
                        base.geometric_mean_fidelity(),
                    4),
         Table::pct(u.lut)});
  }
  table.print();
  std::cout << "\nExpected shape: negligible loss down to 8 bits (the FPGA "
               "deployment point), visible degradation by 6 bits, LUTs "
               "tracking the calibrated weight width.\n";
  return 0;
}
