// Fig 3: (a) averaged IQ (MTV) points of two-level readout, (b) the
// natural-leakage cluster found by spectral clustering, (c) mean traces of
// the qubit-state clusters, (d) mean traces of excitation-error instances.
// Emits CSV series for plotting and prints cluster summaries.
#include <iostream>

#include "bench_util.h"
#include "cluster/leakage_labeler.h"
#include "cluster/spectral.h"
#include "common/csv.h"
#include "dsp/demodulator.h"
#include "dsp/filters.h"
#include "mf/error_miner.h"

int main() {
  using namespace mlqr;
  using namespace mlqr::bench;

  DatasetConfig dcfg;
  dcfg.shots_per_basis_state =
      fast_scaled(default_shots_per_state(), 6, 60);
  const ReadoutDataset ds = generate_dataset(dcfg);
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
  {
    CsvWriter csv("fig3c_state_mean_traces.csv");
    csv.write_row(std::vector<std::string>{"t_ns", "re0", "im0", "re1", "im1",
                                           "re2", "im2"});
    const std::size_t n = ds.chip.n_samples;
    for (std::size_t t = 0; t < n; t += 4) {
      std::vector<double> row{t * ds.chip.dt_ns()};
      for (int level = 0; level < 3; ++level) {
        Complexd acc{0, 0};
        const auto& members = mined.clean[level];
        for (std::size_t s : members) acc += baseband[s][t];
        if (!members.empty()) acc /= static_cast<double>(members.size());
        row.push_back(acc.real());
        row.push_back(acc.imag());
      }
      csv.write_row(row);
    }
  }
  {
    CsvWriter csv("fig3d_excitation_mean_traces.csv");
    csv.write_row(std::vector<std::string>{"t_ns", "re01", "im01", "re02",
                                           "im02", "re12", "im12"});
    const std::size_t n = ds.chip.n_samples;
    for (std::size_t t = 0; t < n; t += 4) {
      std::vector<double> row{t * ds.chip.dt_ns()};
      for (int pair = 0; pair < 3; ++pair) {
        Complexd acc{0, 0};
        const auto& members = mined.excitation[pair];
        for (std::size_t s : members) acc += baseband[s][t];
        if (!members.empty()) acc /= static_cast<double>(members.size());
        row.push_back(acc.real());
        row.push_back(acc.imag());
      }
      csv.write_row(row);
    }
  }

  Table table("Fig 3 — calibration-free leakage mining summary (qubit 5)");
  table.set_header({"Quantity", "Value"});
  std::size_t true2 = 0;
  for (std::size_t s = 0; s < ds.shots.size(); ++s)
    if (ds.shots.labels[s * nq + q] == 2) ++true2;
  table.add_row({"Traces", std::to_string(ds.shots.size())});
  table.add_row({"True |2> traces", std::to_string(true2)});
  table.add_row({"Mined |2> traces", std::to_string(labeling.leakage_count)});
  std::size_t exc_total = 0;
  for (const auto& v : mined.excitation) exc_total += v.size();
  table.add_row({"Mined excitation traces", std::to_string(exc_total)});
  table.print();
  std::cout << "\nSeries written to fig3a_mtv_points.csv, "
               "fig3b_spectral_clusters.csv, fig3c_state_mean_traces.csv, "
               "fig3d_excitation_mean_traces.csv\n";
  return 0;
}
