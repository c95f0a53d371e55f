// Reproduces every table and figure of the paper from one dataset: Fig 1(c)
// and 1(d), SSIII-A, Tables I and II, Fig 3, the SSIV-C scaling study,
// Tables IV-VI, Fig 5(a) and 5(b), SSVII-B and SSVII-D, then the three
// ablations. One ExperimentSuite generates the dataset and trains each
// design once; each variant (QMF-only, QMF+RMF, the shorter readout
// windows, the integer widths, the joint head) is trained once from the
// suite's fast-adjusted config.
//
//   ./reproduce
//
// MLQR_SHOTS sets the shots per basis state (default 400, i.e. 12.8k
// shots); MLQR_FAST=1 shrinks shots and epochs to CI scale. Figure series
// go to *.csv in the working directory, and every printed value to
// BENCH_paper.json: one row per (table, design, column) holding `value`
// (the number the cell prints; percentages as fractions) and, where the
// paper gives one, `paper`.
#include <algorithm>
#include <array>
#include <cstdint>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/leakage_labeler.h"
#include "cluster/spectral.h"
#include "common/csv.h"
#include "common/env.h"
#include "common/fixed_point.h"
#include "common/rng.h"
#include "common/table.h"
#include "discrim/quantized_proposed.h"
#include "dsp/demodulator.h"
#include "dsp/filters.h"
#include "fpga/latency.h"
#include "fpga/power.h"
#include "fpga/resource_model.h"
#include "mf/error_miner.h"
#include "nn/mlp.h"
#include "qec/cnot_leakage.h"
#include "qec/cycle_time.h"
#include "qec/eraser.h"
#include "readout/design_presets.h"
#include "readout/experiment.h"

namespace mlqr::bench {
namespace {

/// How a value prints: `digits` after the point, of the value times
/// `scale`, then `suffix`.
struct Shown {
  int digits = 4;
  double scale = 1.0;
  const char* suffix = "";

  std::string format(double v) const {
    return Table::num(v * scale, digits) + suffix;
  }
};
constexpr Shown kPct{1, 100.0, "%"};
constexpr Shown kMilli{2, 1e3, "e-3"};
constexpr Shown kCount{0};
constexpr Shown kTimes{1, 1.0, "x"};

/// Records `value` as one BENCH_paper.json row and returns it as printed.
/// Every value the driver prints goes through here.
std::string put(BenchReport& json, const std::string& table,
                const std::string& design, const std::string& column,
                double value, Shown shown = {},
                std::optional<double> paper = std::nullopt) {
  BenchReport::Fields row{{"table", table},
                          {"design", design},
                          {"column", column},
                          {"value", value}};
  if (paper) row.emplace_back("paper", *paper);
  json.add_row(std::move(row));
  return shown.format(value);
}

/// A printed table whose value cells are BENCH_paper.json rows, keyed by
/// the table id, the row's design and the cell's column header.
class Sheet {
 public:
  Sheet(BenchReport& json, std::string id, std::string title,
        std::vector<std::string> header)
      : json_(json), id_(std::move(id)), table_(std::move(title)),
        header_(std::move(header)) {
    table_.set_header(header_);
  }

  /// Starts a row of `design`; `lead` replaces the design as its first
  /// printed cells.
  Sheet& row(std::string design, std::vector<std::string> lead = {}) {
    flush();
    cells_ = lead.empty() ? std::vector<std::string>{design} : std::move(lead);
    design_ = std::move(design);
    return *this;
  }
  Sheet& text(std::string cell) {
    cells_.push_back(std::move(cell));
    return *this;
  }
  /// A value cell, recorded under its column's header.
  Sheet& value(double v, Shown shown = {},
               std::optional<double> paper = std::nullopt) {
    return text(put(json_, id_, design_, header_.at(cells_.size()), v, shown,
                    paper));
  }
  /// A paper value: printed, not recorded (it rides on the measured row).
  Sheet& quote(double paper, Shown shown = {}) {
    return text(shown.format(paper));
  }

  /// Prints the table after a blank line.
  void print() {
    flush();
    std::cout << '\n';
    table_.print();
  }

 private:
  void flush() {
    if (!cells_.empty()) table_.add_row(std::move(cells_));
    cells_.clear();
  }

  BenchReport& json_;
  std::string id_;
  Table table_;
  std::vector<std::string> header_;
  std::string design_;
  std::vector<std::string> cells_;
};

std::vector<std::string> fidelity_header(std::size_t n_qubits) {
  std::vector<std::string> h{"Design"};
  for (std::size_t q = 1; q <= n_qubits; ++q)
    h.push_back("Qubit " + std::to_string(q));
  h.push_back("F5Q");
  return h;
}

/// Per-qubit fidelities then F5Q; `paper` holds the same columns.
void fidelity_row(Sheet& sheet, const std::string& design,
                  const FidelityReport& report,
                  std::span<const double> paper = {}) {
  auto with_paper = [&](std::size_t i) {
    return i < paper.size() ? std::optional(paper[i]) : std::nullopt;
  };
  sheet.row(design);
  const std::size_t nq = report.per_qubit.size();
  for (std::size_t q = 0; q < nq; ++q)
    sheet.value(report.qubit_fidelity(q), {}, with_paper(q));
  sheet.value(report.geometric_mean_fidelity(), {}, with_paper(nq));
}

void paper_row(Sheet& sheet, const std::string& design,
               std::span<const double> values) {
  sheet.row(design + " (paper)");
  for (double v : values) sheet.quote(v);
}

// Fig 1(c): readout classification inaccuracy (1 - F) over all five qubits
// for HERQULES, FNN, and the proposed design.
void fig1c(ExperimentSuite& suite, BenchReport& json) {
  std::vector<std::string> header{"Design"};
  for (int q = 1; q <= 5; ++q)
    header.push_back(std::string("Q").append(std::to_string(q)));
  Sheet sheet(json, "fig1c",
              "Fig 1(c) — classification inaccuracy (1 - F) per qubit",
              header);

  CsvWriter csv("fig1c_inaccuracy.csv");
  csv.write_row(std::vector<std::string>{"design", "qubit", "inaccuracy"});
  auto add = [&](const std::string& name, const FidelityReport& r) {
    sheet.row(name);
    for (std::size_t q = 0; q < 5; ++q) {
      const double inacc = 1.0 - r.qubit_fidelity(q);
      sheet.value(inacc);
      csv.write_row(std::vector<std::string>{name, std::to_string(q + 1),
                                             Table::num(inacc)});
    }
  };
  add("HERQULES", suite.herqules().report);
  add("FNN", suite.fnn().report);
  add("OURS", suite.proposed().report);
  sheet.print();
  std::cout << "\nSeries written to fig1c_inaccuracy.csv\n"
            << "Paper shape: HERQULES >> FNN ~ OURS, with OURS lowest "
               "overall.\n";
}

// Fig 1(d): LUT utilization of HERQULES, the FNN design, and the proposed
// method on the xczu7ev. Paper shape: FNN ~420% (does not fit),
// HERQULES ~28%, OURS ~7% (60x less than FNN).
void fig1d(BenchReport& json) {
  const FpgaDevice dev = FpgaDevice::xczu7ev();
  const DesignSpec specs[] = {
      herqules_design_spec(5, 3, 500),
      fnn_design_spec(5, 3, 500),
      proposed_design_spec(5, 3, 500),
  };

  Sheet sheet(json, "fig1d", "Fig 1(d) — LUT utilization on " + dev.name,
              {"Design", "LUTs", "Utilization", "Fits"});
  CsvWriter csv("fig1d_lut.csv");
  csv.write_row(std::vector<std::string>{"design", "lut_pct"});
  std::vector<double> lut;  // herq, fnn, ours
  for (const DesignSpec& spec : specs) {
    const ResourceEstimate est = estimate_design(spec);
    const Utilization util = utilization(est, dev);
    lut.push_back(util.lut);
    sheet.row(spec.name)
        .value(est.luts, kCount)
        .value(util.lut, kPct)
        .text(util.fits() ? "yes" : "NO");
    csv.write_row(std::vector<std::string>{
        spec.name, Table::num(util.lut * 100.0, 1)});
  }
  sheet.print();

  std::cout << "\nFNN/OURS LUT ratio:      "
            << put(json, "fig1d", "FNN/OURS", "LUT ratio", lut[1] / lut[2],
                   kTimes, 60.0)
            << "  (paper: ~60x)\n"
            << "FNN/HERQULES LUT ratio:  "
            << put(json, "fig1d", "FNN/HERQULES", "LUT ratio",
                   lut[1] / lut[0], kTimes, 15.0)
            << "  (paper: ~15x)\n"
            << "Series written to fig1d_lut.csv\n";
}

// SSIII-A: gate malfunction under control-qubit leakage (IBM Lagos
// leakage-injection experiments). Paper: ~3x leakage growth within 12
// CNOTs with a leaked control; 1.5-2% leakage transfer per CNOT+measure.
void sec3a(BenchReport& json) {
  const CnotLeakageModel model;
  const std::size_t shots = fast_scaled(10000, 10, 500);

  const auto base = run_repeated_cnot(model, 12, shots, false, 1);
  const auto leak = run_repeated_cnot(model, 12, shots, true, 1);

  Sheet sheet(json, "sec3a",
              "SSIII-A — target leakage vs repeated CNOTs (" +
                  std::to_string(shots) + " shots)",
              {"CNOTs", "control |1>", "control |2>", "ratio"});
  for (std::size_t g : {0u, 3u, 7u, 11u}) {
    const double b = base.target_leak_fraction[g];
    const double l = leak.target_leak_fraction[g];
    const std::string cnots = std::to_string(g + 1);
    sheet.row(cnots + " CNOTs", {cnots}).value(b).value(l);
    if (b > 0)
      sheet.value(l / b, {2, 1.0, "x"});
    else
      sheet.text("-");
  }
  sheet.print();

  CnotLeakageModel isolated = model;
  isolated.p_background = 0.0;
  const auto single = run_repeated_cnot(isolated, 1, shots * 4, true, 2);
  std::cout << "\nGrowth ratio after 12 CNOTs: "
            << put(json, "sec3a", "leaked control", "growth after 12 CNOTs",
                   leak.target_leak_fraction.back() /
                       base.target_leak_fraction.back(),
                   {2, 1.0, "x"}, 3.0)
            << " (paper: ~3x)\n"
            << "Single CNOT+measure transfer: "
            << put(json, "sec3a", "leaked control", "single CNOT transfer",
                   single.target_leak_fraction.back(), kPct)
            << " (paper: 1.5-2%)\n"
            << "Random bit flips with leaked control: "
            << put(json, "sec3a", "leaked control", "bit flips",
                   leak.target_bitflip_fraction, kPct)
            << " of shots (paper: 'random bit flips')\n";
}

// Table I: impact of multi-level readout on leakage speculation.
// Paper: ERASER accuracy 0.957 / leakage population 4.19e-3;
//        ERASER+M accuracy 0.971 / leakage population 2.97e-3
// (d = 7 surface code, 10 QEC cycles).
void table1(BenchReport& json) {
  const SurfaceCode code(7);
  const LeakageRates rates;
  const std::size_t cycles = 10;
  const std::size_t trials = fast_scaled(4000, 10, 200);

  const SpeculationStats base = run_eraser(code, rates, MultiLevelReadout{},
                                           cycles, trials, 2027);

  // Assumed three-level readout rates, taken from no trained design: the
  // trained proposed design measures lower ones (ROADMAP item 1).
  MultiLevelReadout ml;
  ml.enabled = true;
  ml.p_detect_leaked = 0.93;
  ml.p_false_leaked = 0.01;
  const SpeculationStats with_ml =
      run_eraser(code, rates, ml, cycles, trials, 2027);

  constexpr Shown kAcc{3};
  Sheet sheet(json, "table1",
              "Table I — impact of readout on leakage speculation (d=7, 10 "
              "cycles)",
              {"Design", "Accuracy", "Leakage population"});
  auto add = [&](const std::string& name, const SpeculationStats& s,
                 double paper_acc, double paper_lp) {
    sheet.row(name + " (paper)").quote(paper_acc, kAcc).quote(paper_lp, kMilli);
    sheet.row(name)
        .value(s.speculation_accuracy(), kAcc, paper_acc)
        .value(s.final_leakage_population, kMilli, paper_lp);
  };
  add("ERASER", base, 0.957, 4.19e-3);
  add("ERASER+M", with_ml, 0.971, 2.97e-3);
  sheet.print();

  auto lrc = [&](const std::string& name, const SpeculationStats& s) {
    return put(json, "table1", name, "LRC applications per trial",
               static_cast<double>(s.lrc_applications) /
                   static_cast<double>(trials),
               Shown{1});
  };
  std::cout << "\nLP improvement: "
            << put(json, "table1", "ERASER+M", "LP improvement",
                   base.final_leakage_population /
                       with_ml.final_leakage_population,
                   {2, 1.0, "x"}, 1.5)
            << " (paper: ~1.5x); LRC applications per trial: ERASER "
            << lrc("ERASER", base) << ", ERASER+M "
            << lrc("ERASER+M", with_ml) << "\n";
}

// Table II: three-level readout fidelity of the existing state-of-the-art
// designs (FNN and HERQULES). Paper: FNN F5Q 0.898, HERQULES 0.591 — the
// joint 243-way HERQULES head collapses at three levels.
void table2(ExperimentSuite& suite, BenchReport& json) {
  const double fnn_paper[] = {0.967, 0.728, 0.927, 0.932, 0.962, 0.898};
  const double herq_paper[] = {0.598, 0.549, 0.608, 0.607, 0.594, 0.591};
  Sheet sheet(json, "table2",
              "Table II — three-level fidelity of existing designs",
              fidelity_header(5));
  paper_row(sheet, "FNN", fnn_paper);
  fidelity_row(sheet, "FNN", suite.fnn().report, fnn_paper);
  paper_row(sheet, "HERQULES", herq_paper);
  fidelity_row(sheet, "HERQULES", suite.herqules().report, herq_paper);
  sheet.print();

  std::cout << "\nHERQULES joint-head 243-way output vs per-qubit macro "
               "fidelity: the |2> level has almost no joint-class training "
               "support, so its per-level recall collapses.\n"
               "Deviation from the paper: both baselines train on ~100x "
               "fewer traces than its 1.6M, and to compensate weight their "
               "joint classes by capped inverse frequency (cap 64), which "
               "the paper's baselines do not.\n";
}

// Fig 3: (a) averaged IQ (MTV) points of two-level readout, (b) the
// natural-leakage cluster found by spectral clustering, (c) mean traces of
// the qubit-state clusters, (d) mean traces of excitation-error instances.
// Emits CSV series for plotting and prints cluster summaries.
void fig3(const ReadoutDataset& ds, BenchReport& json) {
  const std::size_t q = 4;  // Most leakage-prone qubit: largest cluster.
  const std::size_t nq = ds.shots.n_qubits;

  const Demodulator demod(ds.chip);
  std::vector<Complexd> mtv(ds.shots.size());
  std::vector<BasebandTrace> baseband(ds.shots.size());
  for (std::size_t s = 0; s < ds.shots.size(); ++s) {
    baseband[s] = demod.demodulate(ds.shots.traces[s], q, 0);
    mtv[s] = mean_trace_value(baseband[s]);
  }

  // (a) MTV scatter with prepared labels; (b) spectral clustering of a
  // subsample (the paper's mining method) + the labeler's assignment.
  {
    CsvWriter csv("fig3a_mtv_points.csv");
    csv.write_row(std::vector<std::string>{"re", "im", "true_level"});
    for (std::size_t s = 0; s < std::min<std::size_t>(ds.shots.size(), 4000);
         ++s)
      csv.write_row(std::vector<std::string>{
          Table::num(mtv[s].real(), 5), Table::num(mtv[s].imag(), 5),
          std::to_string(ds.shots.labels[s * nq + q])});
  }
  {
    // Spectral clustering on an outlier-enriched subsample (Fig 3(b)).
    std::vector<double> pts;
    std::vector<std::size_t> subsample;
    Rng rng(4242);
    const std::vector<std::size_t> perm = rng.permutation(ds.shots.size());
    for (std::size_t i = 0; i < ds.shots.size() && subsample.size() < 500;
         ++i) {
      const std::size_t s = perm[i];
      if (ds.shots.labels[s * nq + q] == 2 || subsample.size() < 480)
        subsample.push_back(s);
    }
    for (std::size_t s : subsample) {
      pts.push_back(mtv[s].real());
      pts.push_back(mtv[s].imag());
    }
    const std::vector<int> labels = spectral_cluster(pts, 2, rng);
    CsvWriter csv("fig3b_spectral_clusters.csv");
    csv.write_row(std::vector<std::string>{"re", "im", "cluster",
                                           "true_level"});
    for (std::size_t i = 0; i < subsample.size(); ++i)
      csv.write_row(std::vector<std::string>{
          Table::num(pts[2 * i], 5), Table::num(pts[2 * i + 1], 5),
          std::to_string(labels[i]),
          std::to_string(ds.shots.labels[subsample[i] * nq + q])});
  }

  // Production labeler summary (what the pipeline actually uses).
  std::vector<int> prepared(ds.shots.size());
  for (std::size_t s = 0; s < ds.shots.size(); ++s)
    prepared[s] = ds.shots.labels[s * nq + q] == 2
                      ? 1  // Leaked traces were nominally |1> preparations.
                      : ds.shots.labels[s * nq + q];
  const LeakageLabeling labeling = label_natural_leakage(mtv, prepared);

  // (c) mean trace per state cluster and (d) mean excitation-error traces.
  const MinedErrorTraces mined =
      mine_error_traces(baseband, labeling.levels);
  auto write_means = [&](const std::string& path,
                         const std::vector<std::string>& header,
                         const auto& groups) {
    CsvWriter csv(path);
    csv.write_row(header);
    for (std::size_t t = 0; t < ds.chip.n_samples; t += 4) {
      std::vector<double> row{t * ds.chip.dt_ns()};
      for (const auto& members : groups) {
        Complexd acc{0, 0};
        for (std::size_t s : members) acc += baseband[s][t];
        if (!members.empty()) acc /= static_cast<double>(members.size());
        row.push_back(acc.real());
        row.push_back(acc.imag());
      }
      csv.write_row(row);
    }
  };
  write_means("fig3c_state_mean_traces.csv",
              {"t_ns", "re0", "im0", "re1", "im1", "re2", "im2"},
              mined.clean);
  write_means("fig3d_excitation_mean_traces.csv",
              {"t_ns", "re01", "im01", "re02", "im02", "re12", "im12"},
              mined.excitation);

  Sheet sheet(json, "fig3",
              "Fig 3 — calibration-free leakage mining summary (qubit 5)",
              {"Quantity", "Value"});
  std::size_t true2 = 0;
  for (std::size_t s = 0; s < ds.shots.size(); ++s)
    if (ds.shots.labels[s * nq + q] == 2) ++true2;
  std::size_t exc_total = 0;
  for (const auto& v : mined.excitation) exc_total += v.size();
  sheet.row("Traces").value(static_cast<double>(ds.shots.size()), kCount);
  sheet.row("True |2> traces").value(static_cast<double>(true2), kCount);
  sheet.row("Mined |2> traces")
      .value(static_cast<double>(labeling.leakage_count), kCount);
  sheet.row("Mined excitation traces")
      .value(static_cast<double>(exc_total), kCount);
  sheet.print();
  std::cout << "\nSeries written to fig3a_mtv_points.csv, "
               "fig3b_spectral_clusters.csv, fig3c_state_mean_traces.csv, "
               "fig3d_excitation_mean_traces.csv\n";
}

// Scalability study (paper SSIV-C): model parameters and FPGA LUTs as the
// system grows in qubit count n and level count k. The proposed design's
// input scales O(n k^2) and its output O(k) per qubit, so total model size
// grows polynomially; the joint designs carry a k^n-wide softmax and blow
// up exponentially.
void scaling(BenchReport& json) {
  const FpgaDevice dev = FpgaDevice::xczu7ev();
  CsvWriter csv("scaling_model_size.csv");
  csv.write_row(std::vector<std::string>{"n_qubits", "levels", "design",
                                         "params", "lut_pct", "fits"});

  Sheet sheet(json, "scaling", "Scaling of model size and LUTs with (n, k)",
              {"n", "k", "Design", "NN params", "LUT%", "Fits"});
  for (int k : {2, 3}) {
    for (std::size_t n : {2u, 5u, 8u, 10u, 12u}) {
      const DesignSpec specs[] = {
          proposed_design_spec(n, k, 500),
          herqules_design_spec(n, k, 500),
          fnn_design_spec(n, k, 500),
      };
      for (const DesignSpec& spec : specs) {
        const Utilization u = utilization(estimate_design(spec), dev);
        const std::string ns = std::to_string(n), ks = std::to_string(k);
        sheet.row(spec.name + " n=" + ns + " k=" + ks, {ns, ks, spec.name})
            .value(static_cast<double>(spec.total_nn_parameters()), kCount)
            .value(u.lut, kPct)
            .text(u.fits() ? "yes" : "NO");
        csv.write_row(std::vector<std::string>{
            ns, ks, spec.name, std::to_string(spec.total_nn_parameters()),
            Table::num(u.lut * 100.0, 2), u.fits() ? "1" : "0"});
      }
    }
  }
  sheet.print();
  std::cout << "\nShape: the proposed design stays on-chip through n=12 at "
               "k=3 while the joint designs' k^n output layers exhaust the "
               "device by n~8.\nSeries written to scaling_model_size.csv\n";
}

// Table IV: three-level readout fidelity of the FNN baseline vs the
// proposed design over all 3^5 states (F5Q = geometric mean across qubits).
// Paper: FNN 0.8985, OURS 0.9052 — a 6.6% relative improvement.
void table4(ExperimentSuite& suite, BenchReport& json) {
  const double fnn_paper[] = {0.967, 0.728, 0.928, 0.932, 0.962, 0.8985};
  const double ours_paper[] = {0.971, 0.745, 0.923, 0.939, 0.969, 0.9052};
  const auto& fnn = suite.fnn();
  const auto& ours = suite.proposed();
  Sheet sheet(json, "table4",
              "Table IV — three-level readout fidelity (macro, vs ground "
              "truth)",
              fidelity_header(5));
  paper_row(sheet, "FNN", fnn_paper);
  fidelity_row(sheet, "FNN", fnn.report, fnn_paper);
  paper_row(sheet, "OURS", ours_paper);
  fidelity_row(sheet, "OURS", ours.report, ours_paper);
  sheet.print();

  const double f_fnn = fnn.report.geometric_mean_fidelity();
  const double f_ours = ours.report.geometric_mean_fidelity();
  const double rel = (f_ours - f_fnn) / (1.0 - f_fnn);
  const auto fnn_params = static_cast<double>(fnn.model.parameter_count());
  const auto ours_params = static_cast<double>(ours.model.parameter_count());
  std::cout << "\nRelative improvement over FNN: "
            << put(json, "table4", "OURS", "relative improvement", rel, kPct,
                   0.066)
            << " (paper: 6.6%)\n"
            << "Model size: FNN "
            << put(json, "table4", "FNN", "params", fnn_params, kCount)
            << " params vs OURS "
            << put(json, "table4", "OURS", "params", ours_params, kCount)
            << " params (ratio "
            << put(json, "table4", "FNN/OURS", "params ratio",
                   fnn_params / ours_params, kTimes, 100.0)
            << ", paper: ~100x)\n";
}

// Table V: single-qutrit readout fidelity of discriminant-analysis methods
// vs NN variants on the excitation-prone qubits 3 and 4.
// Paper (qubit 3): LDA 0.8966, QDA 0.914, NN 0.939, OURS 0.959;
//       (qubit 4): LDA 0.9181, QDA 0.921, NN 0.926, OURS 0.930.
// "NN" is the proposed architecture without the error matched filters
// (QMF-only input) — the gap to OURS is the relaxation/excitation info.
void table5(ExperimentSuite& suite, const FidelityReport& qmf_only,
            BenchReport& json) {
  Sheet sheet(json, "table5",
              "Table V — single-qutrit fidelity, excitation-prone qubits",
              {"Design", "Qubit 3", "Qubit 4"});
  auto add = [&](const std::string& name, const std::string& label,
                 const FidelityReport& r, std::array<double, 2> paper,
                 int paper_digits) {
    sheet.row(name + " (paper)")
        .quote(paper[0], {paper_digits})
        .quote(paper[1], {paper_digits});
    sheet.row(name, {label})
        .value(r.qubit_fidelity(3), {}, paper[0])
        .value(r.qubit_fidelity(4), {}, paper[1]);
  };
  add("LDA", "LDA", suite.lda().report, {0.8966, 0.9181}, 4);
  add("QDA", "QDA", suite.qda().report, {0.914, 0.921}, 3);
  add("NN", "NN (QMF-only)", qmf_only, {0.939, 0.926}, 3);
  add("OURS", "OURS", suite.proposed().report, {0.959, 0.930}, 3);
  sheet.print();
  std::cout << "\nPaper shape: OURS > NN > QDA ~ LDA; the improvement is "
               "attributed to the relaxation/excitation matched filters.\n";
}

// Table VI: impact of multi-level readout *quality* on leakage speculation.
// Each discriminator's measured |2>-detection statistics (from its test
// confusion matrices, averaged over every qubit with both |2> and
// computational shots) feed the ERASER+M simulation. Only the Error(%)
// column excludes qubit 2, per the paper's convention.
// Paper: LDA err 10% -> 0.914; QDA 9% -> 0.921; FNN 5.5% -> 0.943 (slow);
//        OURS 5% -> 0.947 (fast).
void table6(ExperimentSuite& suite, BenchReport& json) {
  const SurfaceCode code(7);
  const LeakageRates rates;
  const std::size_t cycles = 10;
  const std::size_t trials = fast_scaled(3000, 10, 200);
  const std::size_t exclude[] = {1};  // Qubit 2 (index 1).

  Sheet sheet(json, "table6",
              "Table VI — readout quality vs leakage speculation (d=7)",
              {"Design", "Error(%)", "Speed", "Spec. accuracy",
               "paper acc."});
  struct Row {
    const char* name;
    const FidelityReport* report;
    const char* speed;
    double paper_error;
    double paper_acc;
  };
  const Row rows[] = {
      {"LDA", &suite.lda().report, "Fast", 10.0, 0.914},
      {"QDA", &suite.qda().report, "Fast", 9.0, 0.921},
      {"FNN", &suite.fnn().report, "Slow", 5.5, 0.943},
      {"Ours", &suite.proposed().report, "Fast", 5.0, 0.947},
  };
  for (const Row& r : rows) {
    const auto [detect, fp] = leak_detection_rates(*r.report);
    MultiLevelReadout ml;
    ml.enabled = true;
    ml.p_detect_leaked = detect;
    ml.p_false_leaked = fp;
    const SpeculationStats s =
        run_eraser(code, rates, ml, cycles, trials, 31337);
    sheet.row(r.name)
        .value(r.report->readout_error_excluding(exclude) * 100, {1},
               r.paper_error)
        .text(r.speed)
        .value(s.speculation_accuracy(), {3}, r.paper_acc)
        .quote(r.paper_acc, {3});
  }
  sheet.print();
  std::cout << "\nError(%) = 100 x (1 - mean fidelity excluding qubit 2); "
               "detection statistics measured from each design's confusion "
               "matrices.\n";
}

// Fig 5(a): full FPGA resource comparison (LUT/FF/BRAM/DSP) for the three
// designs. Paper: over 5x fewer FFs and 4x fewer LUTs than HERQULES.
void fig5a(BenchReport& json) {
  const FpgaDevice dev = FpgaDevice::xczu7ev();
  const DesignSpec specs[] = {
      fnn_design_spec(5, 3, 500),
      herqules_design_spec(5, 3, 500),
      proposed_design_spec(5, 3, 500),
  };

  Sheet sheet(json, "fig5a", "Fig 5(a) — FPGA resource utilization on " +
                                 dev.name,
              {"Design", "LUT%", "FF%", "BRAM%", "DSP%"});
  CsvWriter csv("fig5a_resources.csv");
  csv.write_row(
      std::vector<std::string>{"design", "lut", "ff", "bram", "dsp"});
  std::vector<Utilization> used;  // fnn, herq, ours
  for (const DesignSpec& spec : specs) {
    const Utilization u = used.emplace_back(
        utilization(estimate_design(spec), dev));
    sheet.row(spec.name)
        .value(u.lut, kPct)
        .value(u.ff, kPct)
        .value(u.bram, kPct)
        .value(u.dsp, kPct);
    csv.write_row(std::vector<double>{u.lut, u.ff, u.bram, u.dsp});
  }
  sheet.print();

  const Utilization& u_herq = used[1];
  const Utilization& u_ours = used[2];
  std::cout << "\nvs HERQULES: LUT "
            << put(json, "fig5a", "HERQULES/OURS", "LUT ratio",
                   u_herq.lut / u_ours.lut, kTimes, 4.0)
            << " (paper ~4x), FF "
            << put(json, "fig5a", "HERQULES/OURS", "FF ratio",
                   u_herq.ff / u_ours.ff, kTimes, 5.0)
            << " (paper >5x)\nSeries written to fig5a_resources.csv\n";
}

// Fig 5(b): mean readout accuracy vs readout duration. The proposed design
// is retrained at each duration; the paper reports ~no accuracy loss down
// to 800 ns (a 20% readout-time reduction). A duration whose window equals
// the suite design's reuses that design.
void fig5b(ExperimentSuite& suite, BenchReport& json) {
  const ReadoutDataset& ds = suite.dataset();
  const ProposedConfig& base = suite.config().proposed;
  Sheet sheet(json, "fig5b",
              "Fig 5(b) — mean accuracy vs readout duration (proposed)",
              {"Duration (ns)", "F5Q", "Mean F", "Mean F (excl Q2)",
               "QEC cycle cut"});
  CsvWriter csv("fig5b_duration.csv");
  csv.write_row(std::vector<std::string>{"duration_ns", "f5q", "mean_f",
                                         "mean_f_excl_q2"});
  const QecCycleSchedule schedule;
  const std::size_t exclude[] = {1};

  for (double duration : {1000.0, 900.0, 800.0, 700.0, 600.0, 500.0}) {
    const std::string ns = Table::num(duration, 0);
    std::optional<Trained<ProposedDiscriminator>> retrained;
    if (ds.chip.window_samples(duration) !=
        ds.chip.window_samples(base.duration_ns)) {
      ProposedConfig pcfg = base;
      pcfg.duration_ns = duration;
      retrained = suite.train<ProposedDiscriminator>(
          "proposed @ " + ns + " ns", pcfg);
    }
    const FidelityReport& r =
        retrained ? retrained->report : suite.proposed().report;
    const double mean_f = r.mean_fidelity_excluding({});
    const double mean_f_x = r.mean_fidelity_excluding(exclude);
    sheet.row(ns + " ns", {ns})
        .value(r.geometric_mean_fidelity())
        .value(mean_f)
        .value(mean_f_x)
        .value(cycle_time_reduction(schedule, duration), kPct);
    csv.write_row(std::vector<double>{duration, r.geometric_mean_fidelity(),
                                      mean_f, mean_f_x});
  }
  sheet.print();
  std::cout << "\nPaper claim: accuracy flat to ~800 ns (20% faster readout "
               "-> ~17% shorter surface-17 QEC cycle).\n"
               "Series written to fig5b_duration.csv\n";
}

// SSVII-B: QEC cycle-time impact of faster readout on surface-17.
// Paper: 200 ns shorter measurement -> up to 17% shorter QEC cycle.
void sec7b(BenchReport& json) {
  const QecCycleSchedule schedule;
  Sheet sheet(json, "sec7b",
              "SSVII-B — surface-17 QEC cycle time vs readout duration",
              {"Readout (ns)", "Cycle (ns)", "Reduction",
               "10-cycle runtime (us)"});
  for (double meas : {1000.0, 900.0, 800.0, 700.0, 600.0}) {
    QecCycleSchedule s = schedule;
    s.measurement_ns = meas;
    const std::string ns = Table::num(meas, 0);
    const std::optional<double> paper =
        meas == 800.0 ? std::optional<double>(0.17) : std::nullopt;
    sheet.row(ns + " ns", {ns})
        .value(s.cycle_ns(), kCount)
        .value(cycle_time_reduction(schedule, meas), kPct, paper)
        .value(qec_runtime_ns(s, 10) * 1e-3, {2});
  }
  sheet.print();
  std::cout << "\nPaper: the 1000 -> 800 ns point (20% faster readout) cuts "
               "the cycle by ~17%.\n"
            << "Schedule: " << schedule.single_qubit_layers << " x "
            << schedule.single_qubit_gate_ns << " ns single-qubit layers + "
            << schedule.cz_layers << " x " << schedule.cz_gate_ns
            << " ns CZ layers + measurement (Versluis et al.).\n";
}

// SSVII-D: ASIC power at 45 nm. Paper: the proposed per-qubit inference
// module needs 1.561 mW total at 1 GHz with a 5-cycle latency.
void sec7d(BenchReport& json) {
  DesignSpec head = proposed_design_spec(5, 3, 500);
  head.name = "OURS (per-qubit head)";
  head.nns.resize(1);
  head.demod_channels = 0;
  head.matched_filters = 0;

  const DesignSpec designs[] = {
      head,
      proposed_design_spec(5, 3, 500),
      herqules_design_spec(5, 3, 500),
      fnn_design_spec(5, 3, 500),
  };

  Sheet sheet(json, "sec7d", "SSVII-D — 45 nm ASIC power at 1 GHz",
              {"Design", "NN MACs", "Latency (cyc)", "Dynamic (mW)",
               "Static (mW)", "Total (mW)"});
  for (const DesignSpec& spec : designs) {
    const std::size_t cycles = design_latency_cycles(spec);
    const PowerEstimate p = estimate_power(spec, cycles);
    const bool is_head = &spec == &designs[0];
    sheet.row(spec.name)
        .value(static_cast<double>(spec.total_nn_parameters()), kCount)
        .value(static_cast<double>(cycles), kCount,
               is_head ? std::optional<double>(5.0) : std::nullopt)
        .value(p.dynamic_mw, {3})
        .value(p.static_mw, {3})
        .value(p.total_mw(), {3},
               is_head ? std::optional<double>(1.561) : std::nullopt);
  }
  sheet.print();
  std::cout << "\nPaper reference point: 1.561 mW at 1 GHz, 5-cycle latency "
               "(per-qubit module, 45 nm TSMC, Synopsys DC).\n";
}

// Ablation: which matched-filter groups earn their hardware? The proposed
// architecture with QMF-only, QMF+RMF, and the full QMF+RMF+EMF bank (the
// paper attributes its Table V win to the error filters, and motivates EMF
// with the excitation-prone qubits 3/4).
void ablation_mf(ExperimentSuite& suite, const FidelityReport& qmf_only,
                 BenchReport& json) {
  ProposedConfig rmf_cfg = suite.config().proposed;
  rmf_cfg.mf.use_emf = false;
  const FidelityReport qmf_rmf =
      suite.train<ProposedDiscriminator>("QMF+RMF", rmf_cfg).report;

  Sheet sheet(json, "ablation_mf",
              "Ablation — matched-filter groups (proposed architecture)",
              fidelity_header(5));
  fidelity_row(sheet, "QMF only", qmf_only);
  fidelity_row(sheet, "QMF+RMF", qmf_rmf);
  fidelity_row(sheet, "QMF+RMF+EMF (full)", suite.proposed().report);
  sheet.print();
  std::cout << "\nExpected shape: error filters help most on the "
               "excitation-prone qubits 4 and 5 (chip indices 3, 4).\n";
}

// Ablation: per-qubit modular heads vs a single joint head, holding the
// matched-filter features fixed (the full 45-feature bank). Isolates the
// architectural choice the paper credits for polynomial scaling: k outputs
// per qubit (class-balanceable, per-qubit calibrated) vs one k^n softmax.
// Both train on the same cross-fitted filter features.
void ablation_modularity(ExperimentSuite& suite, BenchReport& json) {
  const Trained<ProposedDiscriminator>& modular = suite.proposed();

  // Joint head on the same filter bank: 45 -> 60 -> 120 -> 243, on the
  // proposed design's trainer at 30 epochs, class weights capped at 64 as
  // the baselines'.
  JointHeadConfig cfg;
  cfg.filters = MfBankConfig{};
  cfg.hidden = {60, 120};
  cfg.trainer = ProposedConfig::default_trainer();
  cfg.trainer.epochs = 30;
  const Trained<JointHeadDiscriminator> joint =
      suite.train<JointHeadDiscriminator>("joint head", cfg);
  const Mlp& head = joint.model.model();

  Sheet sheet(json, "ablation_modularity",
              "Ablation — modular per-qubit heads vs joint k^n head "
              "(same 45 MF features)",
              fidelity_header(modular.model.num_qubits()));
  fidelity_row(sheet, "Modular (5 x k outputs)", modular.report);
  fidelity_row(sheet, "Joint (243 outputs)", joint.report);
  sheet.print();

  const std::string id = "ablation_modularity";
  std::cout << "\nParameters: modular "
            << put(json, id, "Modular (5 x k outputs)", "params",
                   static_cast<double>(modular.model.parameter_count()),
                   kCount)
            << " vs joint "
            << put(json, id, "Joint (243 outputs)", "params",
                   static_cast<double>(head.parameter_count()), kCount)
            << "; the joint head's output layer alone is "
            << put(json, id, "Joint (243 outputs)", "output-layer params",
                   static_cast<double>(head.layers().back().w.size() +
                                       head.layers().back().b.size()),
                   kCount)
            << " parameters and grows k^n.\n";
}

// Ablation: the real integer datapath vs the float reference, swept over
// code width (Fig 5(a) / Table V's resource-vs-fidelity story). Every row
// runs the fused int16 front-end and the integer per-qubit heads end-to-end
// (QuantizedProposedDiscriminator), and the resource column uses the
// formats that calibration actually picked.
void ablation_quantization(ExperimentSuite& suite, BenchReport& json) {
  const ReadoutDataset& ds = suite.dataset();
  const Trained<ProposedDiscriminator>& trained = suite.proposed();
  const double base = trained.report.geometric_mean_fidelity();
  const FpgaDevice dev = FpgaDevice::xczu7ev();

  // Two knobs, reported separately: weight/kernel width with activations
  // held at 16 bits (the paper's deployment axis — Table V assumes 8-bit
  // weights) and the fully-quantized datapath where activations shrink
  // alongside (the harsher, honest variant).
  Sheet sheet(json, "ablation_quantization",
              "Ablation — integer datapath width vs the float reference",
              {"Weights", "F5Q (act=16)", "Delta (act=16)", "F5Q (act=W)",
               "Delta (act=W)", "LUT%"});
  sheet.row("float32").value(base).text("-").value(base).text("-").text("-");

  for (int bits : {16, 12, 10, 8, 6}) {
    QuantizationConfig wide_act;
    wide_act.weight_bits = bits;
    QuantizationConfig narrow_act = wide_act;
    narrow_act.activation_bits = bits;
    const bool same_cfg = narrow_act.activation_bits == wide_act.activation_bits;
    const QuantizedProposedDiscriminator qw =
        QuantizedProposedDiscriminator::quantize(trained.model, ds.shots,
                                                 ds.train_idx, wide_act);
    const FidelityReport rw = evaluate_on_test(make_backend(qw), ds);
    FidelityReport rn = rw;
    if (!same_cfg) {
      const QuantizedProposedDiscriminator qn =
          QuantizedProposedDiscriminator::quantize(trained.model, ds.shots,
                                                   ds.train_idx, narrow_act);
      rn = evaluate_on_test(make_backend(qn), ds);
    }
    const Utilization u = utilization(estimate_design(qw.design_spec()), dev);
    sheet.row("int W=" + std::to_string(bits))
        .value(rw.geometric_mean_fidelity())
        .value(rw.geometric_mean_fidelity() - base, {4})
        .value(rn.geometric_mean_fidelity())
        .value(rn.geometric_mean_fidelity() - base, {4})
        .value(u.lut, kPct);
  }
  sheet.print();
  std::cout << "\nExpected shape: negligible loss down to 8 bits (the FPGA "
               "deployment point), visible degradation by 6 bits, LUTs "
               "tracking the calibrated weight width.\n";
}

}  // namespace
}  // namespace mlqr::bench

int main() {
  using namespace mlqr;
  using namespace mlqr::bench;

  SuiteConfig cfg;
  // 400 shots per basis state (12.8k shots) unless MLQR_SHOTS says
  // otherwise; the suite applies MLQR_FAST's shrink on top.
  cfg.dataset.shots_per_basis_state =
      static_cast<std::size_t>(env_int("MLQR_SHOTS", 400));
  ExperimentSuite suite(cfg);
  BenchReport json("paper");
  json.context("shots_per_basis_state",
               static_cast<std::int64_t>(
                   suite.config().dataset.shots_per_basis_state));

  fig1c(suite, json);
  fig1d(json);
  sec3a(json);
  table1(json);
  table2(suite, json);
  fig3(suite.dataset(), json);
  scaling(json);
  table4(suite, json);
  // The QMF-only variant is Table V's "NN" row and ablation_mf's first.
  ProposedConfig qmf_cfg = suite.config().proposed;
  qmf_cfg.mf.use_rmf = false;
  qmf_cfg.mf.use_emf = false;
  const FidelityReport qmf_only =
      suite.train<ProposedDiscriminator>("QMF-only", qmf_cfg).report;
  table5(suite, qmf_only, json);
  table6(suite, json);
  fig5a(json);
  fig5b(suite, json);
  sec7b(json);
  sec7d(json);
  ablation_mf(suite, qmf_only, json);
  ablation_modularity(suite, json);
  ablation_quantization(suite, json);
  std::cout << "\nEvery printed value written to " << json.save() << '\n';
  return 0;
}
