// Calibration snapshot contracts (pipeline/snapshot.h): a backend saved
// with save_backend, reloaded with load_backend, and served through the
// engines classifies bit-identically to its pre-save original — float and
// int16 kinds, across batch/thread/shard knobs, and through a live
// StreamingEngine::swap_shard — while corrupt or mismatched streams fail
// with hard errors instead of half-loading.
#include "pipeline/snapshot.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/serialize.h"
#include "pipeline/streaming_engine.h"
#include "readout/dataset.h"

namespace mlqr {
namespace {

/// Shared small two-qubit dataset + trained float and int16 designs
/// (training dominates this file's runtime, so it happens once).
struct Fixture {
  ReadoutDataset ds;
  ProposedDiscriminator proposed;
  QuantizedProposedDiscriminator quantized;
  std::vector<int> float_labels;  ///< Sync labels over every trace.
  std::vector<int> int16_labels;

  static const Fixture& get() {
    static const Fixture fx = [] {
      DatasetConfig cfg;
      cfg.chip = ChipProfile::test_two_qubit();
      cfg.shots_per_basis_state = 160;
      cfg.seed = 20260731;
      ReadoutDataset ds = generate_dataset(cfg);
      ProposedConfig pcfg;
      pcfg.trainer.epochs = 6;
      ProposedDiscriminator p = ProposedDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip, pcfg);
      QuantizedProposedDiscriminator q =
          QuantizedProposedDiscriminator::quantize(p, ds.shots, ds.train_idx);
      ReadoutEngine fsync(make_backend(p));
      ReadoutEngine isync(make_backend(q));
      std::vector<int> fl = fsync.process_batch(ds.shots.traces).labels;
      std::vector<int> il = isync.process_batch(ds.shots.traces).labels;
      return Fixture{std::move(ds), std::move(p), std::move(q), std::move(fl),
                     std::move(il)};
    }();
    return fx;
  }
};

/// Labels of every fixture trace through `backend` at the given worker
/// budget.
std::vector<int> classify_all(const EngineBackend& backend,
                              std::size_t threads) {
  EngineConfig cfg;
  cfg.threads = threads;
  ReadoutEngine engine(backend, cfg);
  return engine.process_batch(Fixture::get().ds.shots.traces).labels;
}

TEST(Snapshot, FloatRoundTripBitIdentical) {
  const Fixture& fx = Fixture::get();
  std::stringstream ss;
  save_backend(ss, fx.proposed);
  const BackendSnapshot snap = load_backend(ss);
  EXPECT_EQ(snap.kind(), SnapshotKind::kFloat);
  EXPECT_EQ(snap.name(), fx.proposed.name());
  EXPECT_EQ(snap.num_qubits(), fx.proposed.num_qubits());
  const auto reloaded = snap.as<ProposedDiscriminator>();
  ASSERT_TRUE(reloaded);
  EXPECT_FALSE(snap.as<QuantizedProposedDiscriminator>());
  EXPECT_EQ(reloaded->parameter_count(), fx.proposed.parameter_count());
  for (std::size_t threads : {1u, 4u})
    EXPECT_EQ(classify_all(snap.backend(), threads), fx.float_labels)
        << threads << " threads";
}

TEST(Snapshot, Int16RoundTripBitIdentical) {
  const Fixture& fx = Fixture::get();
  std::stringstream ss;
  save_backend(ss, fx.quantized);
  const BackendSnapshot snap = load_backend(ss);
  EXPECT_EQ(snap.kind(), SnapshotKind::kInt16);
  EXPECT_EQ(snap.name(), fx.quantized.name());
  const auto reloaded = snap.as<QuantizedProposedDiscriminator>();
  ASSERT_TRUE(reloaded);
  EXPECT_FALSE(snap.as<ProposedDiscriminator>());
  // The calibrated formats round-trip exactly.
  const QuantizedFrontend& a = fx.quantized.frontend();
  const QuantizedFrontend& b = reloaded->frontend();
  EXPECT_EQ(a.trace_format().total_bits, b.trace_format().total_bits);
  EXPECT_EQ(a.trace_format().frac_bits, b.trace_format().frac_bits);
  EXPECT_EQ(a.feature_format().frac_bits, b.feature_format().frac_bits);
  for (std::size_t f = 0; f < a.n_filters(); ++f)
    EXPECT_EQ(a.kernel_format(f).frac_bits, b.kernel_format(f).frac_bits);
  for (std::size_t q = 0; q < fx.quantized.num_qubits(); ++q) {
    const auto& la = fx.quantized.head(q).layers();
    const auto& lb = reloaded->head(q).layers();
    ASSERT_EQ(la.size(), lb.size());
    for (std::size_t l = 0; l < la.size(); ++l)
      EXPECT_EQ(la[l].weight_fmt.frac_bits, lb[l].weight_fmt.frac_bits);
  }
  for (std::size_t threads : {1u, 4u})
    EXPECT_EQ(classify_all(snap.backend(), threads), fx.int16_labels)
        << threads << " threads";
}

TEST(Snapshot, FileRoundTripAndOwningBackendOutlivesSnapshot) {
  const Fixture& fx = Fixture::get();
  const std::string path = "test_snapshot_tmp.snap";
  save_backend_file(path, fx.quantized);
  EngineBackend backend;
  {
    const BackendSnapshot snap = load_backend_file(path);
    backend = snap.backend();
    // The backend owns the discriminator through its shared_ptr capture;
    // the snapshot (and the file) can go away.
  }
  std::remove(path.c_str());
  EXPECT_EQ(classify_all(backend, 2), fx.int16_labels);
}

TEST(Snapshot, RejectsBadMagicVersionAndTruncation) {
  const Fixture& fx = Fixture::get();
  {
    std::stringstream ss;
    ss << "NOTASNAPxxxxxxxx";
    EXPECT_THROW(load_backend(ss), Error);
  }
  {
    // Valid magic, unsupported version.
    std::stringstream ss;
    ss << "MLQRSNAP";
    io::write_u32(ss, kSnapshotVersion + 7);
    EXPECT_THROW(load_backend(ss), Error);
  }
  {
    // Truncated mid-payload: hard error, not a half-loaded backend.
    std::stringstream full;
    save_backend(full, fx.proposed);
    const std::string bytes = full.str();
    std::stringstream cut(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(load_backend(cut), Error);
  }
  {
    // Unknown kind byte (magic 8 + version 4 -> offset 12).
    std::stringstream full;
    save_backend(full, fx.proposed);
    std::string bytes = full.str();
    bytes[12] = 9;
    std::stringstream tampered(bytes);
    EXPECT_THROW(load_backend(tampered), Error);
  }
  {
    // Header/payload qubit-count mismatch: flip the LSB of the n_qubits
    // u64 (offset 13, after magic + version + kind). The payload decodes
    // cleanly, so this specifically exercises the header cross-check.
    std::stringstream full;
    save_backend(full, fx.proposed);
    std::string bytes = full.str();
    ASSERT_EQ(static_cast<int>(bytes[13]), 2);  // Two-qubit fixture.
    bytes[13] = 9;
    std::stringstream tampered(bytes);
    EXPECT_THROW(load_backend(tampered), Error);
  }
}

TEST(Snapshot, ComponentStreamsRejectDimensionMismatch) {
  // A QuantizedMlp whose layer payload disagrees with its dims must not
  // load (the low-level half of the "hard errors on dimension mismatch"
  // guarantee; the cross-component half is covered above).
  const Fixture& fx = Fixture::get();
  std::stringstream ss;
  fx.quantized.head(0).save(ss);
  std::string bytes = ss.str();
  // The first layer's `in` dim sits right after the 20-byte config and the
  // 8-byte layer count; bump it so w.size() != in * out.
  bytes[28] = static_cast<char>(bytes[28] + 1);
  std::stringstream tampered(bytes);
  EXPECT_THROW(QuantizedMlp::load(tampered), Error);
}

TEST(Snapshot, HeadStreamsRejectGridsWiderThanTheirCodes) {
  // A head's formats are untrusted input: a weight or activation grid
  // wider than the code storage would overflow the batch path's strip
  // bound, so both widths refuse it on load.
  const Fixture& fx = Fixture::get();
  const Quantized8ProposedDiscriminator q8 =
      Quantized8ProposedDiscriminator::quantize(fx.proposed, fx.ds.shots,
                                                fx.ds.train_idx);
  std::stringstream s16, s8;
  fx.quantized.head(0).save(s16);
  q8.head(0).save(s8);
  // First layer: 20-byte config, 8-byte layer count, in and out (8 bytes
  // each), then weight_fmt {total_bits, frac_bits} and in_fmt, as i32s.
  constexpr std::size_t kWeightBits = 44;
  constexpr std::size_t kInBits = 52;
  for (const std::size_t offset : {kWeightBits, kInBits}) {
    std::string b16 = s16.str();
    b16[offset] = 40;
    std::stringstream t16(b16);
    EXPECT_THROW(QuantizedMlp::load(t16), Error) << "int16 offset " << offset;
    std::string b8 = s8.str();
    b8[offset] = 12;
    std::stringstream t8(b8);
    EXPECT_THROW(QuantizedMlpOf<std::int8_t>::load(t8), Error)
        << "int8 offset " << offset;
  }
}

TEST(Snapshot, FrontendRejectsNonFiniteRequantConstants) {
  // The int16 front-end's per-filter requant scale and offset are
  // untrusted doubles: a NaN would reach an undefined float -> int
  // conversion, so load refuses NaN, infinite and non-positive scales and
  // non-finite offsets.
  const Fixture& fx = Fixture::get();
  const QuantizedFrontend& fe = fx.quantized.frontend();
  std::stringstream ss;
  fe.save(ss);
  const std::string bytes = ss.str();
  // n_samples, n_qubits, three formats, the kernel format count and one
  // format per filter, then the real and imaginary int16 row tables (each
  // length-prefixed), then scale and offset as length-prefixed f64s.
  const std::size_t filters = fe.n_filters();
  const std::size_t rows = filters * fe.n_samples();
  const std::size_t scale_at =
      8 + 8 + 3 * 8 + 8 + 8 * filters + 2 * (8 + 2 * rows) + 8;
  const std::size_t offset_at = scale_at + 8 * filters + 8;
  ASSERT_LT(offset_at + 8, bytes.size());
  const auto f64_at = [&](std::size_t at) {
    std::stringstream s(bytes.substr(at, 8));
    return io::read_f64(s);
  };
  ASSERT_GT(f64_at(scale_at), 0.0) << "layout drifted";
  ASSERT_GT(f64_at(scale_at + 8 * (filters - 1)), 0.0) << "layout drifted";
  const auto with_f64 = [&](std::size_t at, double x) {
    std::stringstream s;
    io::write_f64(s, x);
    std::string b = bytes;
    b.replace(at, 8, s.str());
    return b;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t last_scale = scale_at + 8 * (filters - 1);
  for (const std::string& b :
       {with_f64(scale_at, nan), with_f64(last_scale, inf),
        with_f64(scale_at, 0.0), with_f64(scale_at, -1e-3),
        with_f64(offset_at, nan), with_f64(offset_at, -inf)}) {
    std::stringstream tampered(b);
    EXPECT_THROW(QuantizedFrontend::load(tampered), Error);
  }
  std::stringstream untouched(bytes);
  EXPECT_NO_THROW(QuantizedFrontend::load(untouched));
}

TEST(Snapshot, CheckedInCorpusResavesByteIdentically) {
  // The checked-in seed corpus (one valid snapshot per kind) pins the wire
  // format: every file loads and saves back to exactly its own bytes.
  for (const char* stem :
       {"float", "int16", "fnn", "herqules", "lda", "qda", "int8"}) {
    const std::string path = std::string(MLQR_CORPUS_DIR) + "/" + stem + ".snap";
    std::ifstream file(path, std::ios::binary);
    ASSERT_TRUE(file.good()) << path;
    const std::string bytes((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
    std::stringstream in(bytes);
    const BackendSnapshot snap = load_backend(in);
    std::stringstream out;
    snap.save(out);
    EXPECT_EQ(out.str(), bytes) << path;
  }
}

TEST(Snapshot, GaussianLoadRejectsTheRetiredSplitWindowFlag) {
  // LDA/QDA payloads keep the byte of the retired early/late feature split:
  // save writes false, and load refuses true rather than misreading the
  // classifiers. Snapshots carry no checksum, so the flipped byte reaches
  // that check.
  const std::string path = std::string(MLQR_CORPUS_DIR) + "/lda.snap";
  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(file)),
                    std::istreambuf_iterator<char>());
  // Header: magic 8, version 4, kind 1, n_qubits 8, n_samples 8, then the
  // name "LDA" with its u64 length; the payload opens with the classifier
  // kind byte and the flag.
  constexpr std::size_t kFlag = 8 + 4 + 1 + 8 + 8 + 8 + 3 + 1;
  ASSERT_EQ(bytes.substr(kFlag - 4, 3), "LDA") << "layout drifted";
  ASSERT_EQ(bytes[kFlag], 0);
  std::stringstream untouched(bytes);
  EXPECT_NO_THROW(load_backend(untouched));
  bytes[kFlag] = 1;
  std::stringstream tampered(bytes);
  try {
    load_backend(tampered);
    ADD_FAILURE() << "a split-window LDA snapshot loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("split-window"), std::string::npos)
        << e.what();
  }
}

TEST(Snapshot, JointHeadLoadRejectsOtherLevelCounts) {
  // FNN and HERQULES payloads open with a u32 level count that save always
  // writes as kNumLevels; load refuses any other count, the two-level
  // layout included.
  const std::pair<std::string, std::string> kinds[] = {
      {"fnn", "FNN"}, {"herqules", "HERQULES"}};
  for (const auto& [stem, name] : kinds) {
    const std::string path =
        std::string(MLQR_CORPUS_DIR) + "/" + stem + ".snap";
    std::ifstream file(path, std::ios::binary);
    ASSERT_TRUE(file.good()) << path;
    std::string bytes((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
    // Header: magic 8, version 4, kind 1, n_qubits 8, n_samples 8, then the
    // name with its u64 length.
    const std::size_t levels_at = 8 + 4 + 1 + 8 + 8 + 8 + name.size();
    ASSERT_EQ(bytes.substr(levels_at - name.size(), name.size()), name)
        << "layout drifted";
    ASSERT_EQ(bytes[levels_at], static_cast<char>(kNumLevels));
    for (const char levels : {2, 4}) {
      bytes[levels_at] = levels;
      std::stringstream tampered(bytes);
      try {
        load_backend(tampered);
        ADD_FAILURE() << name << " loaded with " << int{levels} << " levels";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("levels"), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Snapshot, LoadRejectsRetiredTrainingFields) {
  // The MF-bank config keeps wire slots for the retired use_qmf, miner
  // fractions and margin, min_error_traces and kernel_smooth_window, and the
  // quantization config one for max_calibration_shots. save writes each
  // one's fixed value; load refuses any other value and names the field.
  auto read_corpus = [](const std::string& stem) {
    const std::string path =
        std::string(MLQR_CORPUS_DIR) + "/" + stem + ".snap";
    std::ifstream file(path, std::ios::binary);
    EXPECT_TRUE(file.good()) << path;
    return std::string((std::istreambuf_iterator<char>(file)),
                       std::istreambuf_iterator<char>());
  };
  // Writes `value` over the bytes at `at` and expects the load to throw an
  // Error that names `field`.
  auto expect_rejected = [](std::string bytes, std::size_t at,
                            const std::string& value, const char* field) {
    bytes.replace(at, value.size(), value);
    std::stringstream tampered(bytes);
    try {
      load_backend(tampered);
      ADD_FAILURE() << "a snapshot with another " << field << " loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  auto encoded = [](auto write) {
    std::ostringstream os;
    write(os);
    return os.str();
  };
  auto f64 = [&](double x) {
    return encoded([x](std::ostream& os) { io::write_f64(os, x); });
  };
  auto u64 = [&](std::uint64_t x) {
    return encoded([x](std::ostream& os) { io::write_u64(os, x); });
  };

  // MF-bank config: use_qmf, use_rmf, use_emf, early and late fraction,
  // margin, min_error_traces, kernel_smooth_window.
  {
    const std::string bytes = read_corpus("float");
    const std::string bank = encoded([](std::ostream& os) {
      for (int i = 0; i < 3; ++i) io::write_bool(os, true);
      for (double x : {0.35, 0.35, 1.0}) io::write_f64(os, x);
      io::write_u64(os, 8);
      io::write_u64(os, 16);
    });
    const std::size_t at = bytes.find(bank);
    ASSERT_NE(at, std::string::npos) << "no MF-bank config in float.snap";
    std::stringstream untouched(bytes);
    EXPECT_NO_THROW(load_backend(untouched));
    expect_rejected(bytes, at, std::string(1, '\0'), "use_qmf");
    expect_rejected(bytes, at + 3, f64(0.5), "early_fraction");
    expect_rejected(bytes, at + 19, f64(2.0), "margin");
    expect_rejected(bytes, at + 27, u64(9), "min_error_traces");
    expect_rejected(bytes, at + 35, u64(17), "kernel_smooth_window");
  }

  // Quantization config: weight, activation and accumulator widths, then
  // max_calibration_shots.
  const std::pair<std::string, std::array<std::int32_t, 3>> quantized[] = {
      {"int16", {16, 16, 32}}, {"int8", {8, 8, 24}}};
  for (const auto& [stem, widths] : quantized) {
    const std::string bytes = read_corpus(stem);
    const std::string qcfg = encoded([&](std::ostream& os) {
      for (std::int32_t w : widths) io::write_i32(os, w);
      io::write_u64(os, 512);
    });
    const std::size_t at = bytes.find(qcfg);
    ASSERT_NE(at, std::string::npos) << "no quantization config in " << stem;
    std::stringstream untouched(bytes);
    EXPECT_NO_THROW(load_backend(untouched)) << stem;
    expect_rejected(bytes, at + 12, u64(513), "max_calibration_shots");
  }
}

TEST(Snapshot, SwapShardServesReloadedCalibrationWithoutStopping) {
  // Drift-recalibration flow: a float engine serves traffic, a snapshot of
  // a quantized recalibration is loaded, and swap_shard installs it on
  // every shard between micro-batches — later tickets classify on the new
  // backend, earlier ones keep their old labels, nothing is dropped.
  const Fixture& fx = Fixture::get();
  std::stringstream ss;
  save_backend(ss, fx.quantized);
  const BackendSnapshot snap = load_backend(ss);

  StreamingConfig cfg;
  cfg.queue_capacity = fx.ds.shots.size();
  cfg.batch_max = 16;
  StreamingEngine eng(make_backend(fx.proposed), 2, cfg);
  const std::size_t n = std::min<std::size_t>(120, fx.ds.shots.size());
  const std::size_t half = n / 2;

  std::vector<StreamingEngine::Ticket> tickets;
  for (std::size_t s = 0; s < half; ++s)
    tickets.push_back(*eng.submit(fx.ds.shots.traces[s]));
  eng.drain();  // Pre-swap shots are classified (float) before the swap.
  eng.swap_shard(0, snap.backend());
  eng.swap_shard(1, snap.backend());
  EXPECT_EQ(eng.stats().swaps, 2u);
  for (std::size_t s = half; s < n; ++s)
    tickets.push_back(*eng.submit(fx.ds.shots.traces[s]));
  eng.drain();

  const std::size_t nq = eng.num_qubits();
  std::vector<int> got(nq);
  for (std::size_t s = 0; s < n; ++s) {
    ASSERT_EQ(eng.wait_result(tickets[s], got), ShotStatus::kDone);
    const std::vector<int>& want = s < half ? fx.float_labels : fx.int16_labels;
    for (std::size_t q = 0; q < nq; ++q)
      ASSERT_EQ(got[q], want[s * nq + q]) << "shot " << s << " qubit " << q;
  }
  EXPECT_EQ(eng.stats().completed, n);
}

TEST(Snapshot, SwapShardUnderConcurrentTrafficKeepsTicketFrameBinding) {
  // Swapping in the *same* calibration (reloaded from its snapshot) while
  // producers stream means every label is independent of when the swap
  // lands — any dropped, rerouted, or misbound ticket would surface as a
  // mismatch. Also the TSan target for the swap path.
  const Fixture& fx = Fixture::get();
  std::stringstream ss;
  save_backend(ss, fx.proposed);
  const BackendSnapshot snap = load_backend(ss);

  StreamingConfig cfg;
  cfg.queue_capacity = 64;
  cfg.batch_max = 8;
  cfg.deadline_us = 50;
  StreamingEngine eng(make_backend(fx.proposed), 2, cfg);
  const std::size_t n = std::min<std::size_t>(200, fx.ds.shots.size());
  {
    std::jthread producer([&] {
      for (std::size_t s = 0; s < n; ++s) eng.submit(fx.ds.shots.traces[s]);
    });
    std::jthread swapper([&] {
      for (int round = 0; round < 6; ++round) {
        eng.swap_shard(round % 2, snap.backend());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    const std::size_t nq = eng.num_qubits();
    std::vector<int> out(nq);
    for (std::size_t s = 0; s < n; ++s) {  // Tickets are issued in order.
      ASSERT_EQ(eng.wait_result(s, out), ShotStatus::kDone);
      for (std::size_t q = 0; q < nq; ++q)
        ASSERT_EQ(out[q], fx.float_labels[s * nq + q])
            << "shot " << s << " qubit " << q;
    }
  }  // Joins producer and swapper before checking the swap counter.
  EXPECT_EQ(eng.stats().swaps, 6u);
}

TEST(Snapshot, SwapShardValidatesBackendAndIndex) {
  const Fixture& fx = Fixture::get();
  StreamingEngine eng(make_backend(fx.proposed), 2);
  EXPECT_THROW(eng.swap_shard(0, EngineBackend{}), Error);
  EXPECT_THROW(
      eng.swap_shard(0, EngineBackend("odd", fx.proposed.num_qubits() + 1,
                                      [](const IqTrace&, InferenceScratch&,
                                         std::span<int>) {})),
      Error);
  EXPECT_THROW(eng.swap_shard(7, make_backend(fx.proposed)), Error);
  EXPECT_EQ(eng.stats().swaps, 0u);
}

}  // namespace
}  // namespace mlqr
