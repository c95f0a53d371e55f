// Calibration snapshot round trip: train the proposed discriminator,
// quantize its int16 and int8 twins, persist all three with save_backend,
// reload them with load_backend, verify bit-identical serving, then
// hot-swap the reloaded calibrations onto a live StreamingEngine without
// stopping traffic — the full drift-recalibration deployment loop.
//
//   ./snapshot_roundtrip [shots_per_basis_state]
//
// Writes calibration.{float,int16,int8}.snap in the working
// directory; load_backend_file reloads any of them in another process.
// MLQR_FAST=1 shrinks the run to CI scale.
//
// MLQR_CORPUS_DIR=<dir> switches to seed-corpus mode: train every
// registered snapshot kind on a tiny two-qubit dataset, write one valid
// <dir>/<kind>.snap per design, and exit. The checked-in fuzz/corpus/
// seeds for the load_backend fuzzer were last generated this way at
// c8c4461; they pin the load/re-save wire format only, and training has
// moved the float, int16, fnn and herqules bytes since.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/table.h"
#include "discrim/gaussian_discriminator.h"
#include "discrim/joint_head.h"
#include "pipeline/snapshot.h"
#include "pipeline/streaming_engine.h"
#include "readout/dataset.h"

namespace {

// Seed-corpus mode: one small, valid snapshot per registered kind (plus
// both Gaussian flavours), written as <dir>/<name>.snap.
int write_corpus(const std::string& dir) {
  using namespace mlqr;
  DatasetConfig dcfg;
  dcfg.chip = ChipProfile::test_two_qubit();
  dcfg.shots_per_basis_state = 120;
  dcfg.seed = 20260807;
  std::cout << "[corpus] generating two-qubit dataset...\n";
  const ReadoutDataset ds = generate_dataset(dcfg);

  const auto emit = [&dir](const std::string& stem, const auto& d) {
    const std::string path = dir + "/" + stem + ".snap";
    save_backend_file(path, d);
    std::cout << "[corpus] wrote " << path << '\n';
  };

  ProposedConfig pcfg;
  pcfg.trainer.epochs = 6;
  const ProposedDiscriminator proposed = ProposedDiscriminator::train(
      ds.shots, ds.training_labels, ds.train_idx, ds.chip, pcfg);
  emit("float", proposed);
  emit("int16", QuantizedProposedDiscriminator::quantize(proposed, ds.shots,
                                                         ds.train_idx));
  emit("int8", Quantized8ProposedDiscriminator::quantize(proposed, ds.shots,
                                                         ds.train_idx));

  JointHeadConfig fcfg = JointHeadConfig::fnn();
  fcfg.trainer.epochs = 2;
  fcfg.hidden = {16};  // Seed inputs should be small; capacity is moot.
  emit("fnn", JointHeadDiscriminator::train(ds.shots, ds.training_labels,
                                            ds.train_idx, ds.chip, fcfg));

  JointHeadConfig hcfg = JointHeadConfig::herqules();
  hcfg.trainer.epochs = 4;
  hcfg.hidden = {16};
  emit("herqules",
       JointHeadDiscriminator::train(ds.shots, ds.training_labels,
                                     ds.train_idx, ds.chip, hcfg));

  emit("lda", GaussianShotDiscriminator::train(ds.shots, ds.training_labels,
                                               ds.train_idx, ds.chip,
                                               GaussianKind::kLda));
  emit("qda", GaussianShotDiscriminator::train(ds.shots, ds.training_labels,
                                               ds.train_idx, ds.chip,
                                               GaussianKind::kQda));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mlqr;

  if (const char* corpus_dir = std::getenv("MLQR_CORPUS_DIR");
      corpus_dir && *corpus_dir)
    return write_corpus(corpus_dir);

  // Default five-qubit chip: the snapshots this writes are directly
  // loadable by the benches (same chip/channel geometry).
  DatasetConfig dcfg;
  dcfg.shots_per_basis_state =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1]))
               : fast_scaled(400, 2, 120);
  std::cout << "[snapshot] generating dataset ("
            << dcfg.shots_per_basis_state << " shots/state)...\n";
  const ReadoutDataset ds = generate_dataset(dcfg);

  ProposedConfig pcfg;
  pcfg.trainer.epochs = fast_mode() ? 8 : 20;
  std::cout << "[snapshot] training float discriminator...\n";
  const ProposedDiscriminator proposed = ProposedDiscriminator::train(
      ds.shots, ds.training_labels, ds.train_idx, ds.chip, pcfg);
  std::cout << "[snapshot] calibrating int16 twin...\n";
  const QuantizedProposedDiscriminator quantized =
      QuantizedProposedDiscriminator::quantize(proposed, ds.shots,
                                               ds.train_idx);
  std::cout << "[snapshot] calibrating int8 twin...\n";
  const Quantized8ProposedDiscriminator quantized8 =
      Quantized8ProposedDiscriminator::quantize(proposed, ds.shots,
                                                ds.train_idx);

  // ---- save -------------------------------------------------------------
  const std::string float_path = "calibration.float.snap";
  const std::string int16_path = "calibration.int16.snap";
  const std::string int8_path = "calibration.int8.snap";
  save_backend_file(float_path, proposed);
  save_backend_file(int16_path, quantized);
  save_backend_file(int8_path, quantized8);
  std::cout << "[snapshot] wrote " << float_path << ", " << int16_path
            << " and " << int8_path << '\n';

  // ---- load + serve: must be bit-identical to the originals -------------
  const BackendSnapshot float_snap = load_backend_file(float_path);
  const BackendSnapshot int16_snap = load_backend_file(int16_path);
  const BackendSnapshot int8_snap = load_backend_file(int8_path);

  auto count_mismatches = [&](const EngineBackend& a, const EngineBackend& b) {
    ReadoutEngine ea(a), eb(b);
    const std::vector<int> la = ea.process_batch(ds.shots.traces).labels;
    const std::vector<int> lb = eb.process_batch(ds.shots.traces).labels;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < la.size(); ++i) bad += la[i] != lb[i];
    return bad;
  };
  const std::size_t float_bad =
      count_mismatches(make_backend(proposed), float_snap.backend());
  const std::size_t int16_bad =
      count_mismatches(make_backend(quantized), int16_snap.backend());
  const std::size_t int8_bad =
      count_mismatches(make_backend(quantized8), int8_snap.backend());

  Table table("Snapshot round trip (" + std::to_string(ds.shots.size()) +
              " frames)");
  table.set_header({"Backend", "Saved as", "Label mismatches vs original"});
  table.add_row({float_snap.name(), float_path, std::to_string(float_bad)});
  table.add_row({int16_snap.name(), int16_path, std::to_string(int16_bad)});
  table.add_row({int8_snap.name(), int8_path, std::to_string(int8_bad)});
  table.print();
  if (float_bad + int16_bad + int8_bad != 0) {
    std::cerr << "snapshot round trip is NOT bit-identical\n";
    return 1;
  }

  // ---- hot recalibration on a live engine -------------------------------
  // Serve the first half on the trained float backend, swap the shards to
  // the reloaded integer calibrations (one int16, one int8) between
  // micro-batches, serve the rest.
  StreamingConfig scfg;
  scfg.queue_capacity = ds.shots.size();
  StreamingEngine engine(make_backend(proposed), 2, scfg);
  const std::size_t half = ds.shots.size() / 2;
  std::vector<StreamingEngine::Ticket> tickets;
  for (std::size_t s = 0; s < half; ++s)
    tickets.push_back(*engine.submit(ds.shots.traces[s]));
  engine.drain();
  engine.swap_shard(0, int16_snap.backend());
  engine.swap_shard(1, int8_snap.backend());
  for (std::size_t s = half; s < ds.shots.size(); ++s)
    tickets.push_back(*engine.submit(ds.shots.traces[s]));
  engine.drain();
  std::vector<int> labels(engine.num_qubits());
  std::size_t not_done = 0;
  for (const auto t : tickets)
    if (engine.wait_result(t, labels) != ShotStatus::kDone) ++not_done;
  if (not_done != 0) {
    std::cerr << "hot swap left " << not_done << " tickets unserved\n";
    return 1;
  }
  const StreamingStats st = engine.stats();
  std::cout << "[snapshot] hot swap: " << st.completed
            << " shots served across " << st.batches << " micro-batches, "
            << st.swaps << " shard swaps, zero dropped tickets\n";
  return 0;
}
