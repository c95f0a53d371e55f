// StreamingEngine soaks: two sustained, seeded correctness gates for the
// asynchronous serving path (the paper's Sec. 7(b) QEC-cycle serving
// shape — shots trickle in per cycle rather than arriving as preassembled
// batches). Both exit non-zero when their gate fails. Throughput and
// latency are measured by perfbench/ (workload qec_stream), not here.
//
// Fault soak (--soak-seconds=N): open-loop Poisson traffic with
// bounded-blocking admission (a submit timeout; overflow is rejected, not
// queued), per-shot deadline shedding, a hot-swap thread cycling shard
// calibrations, and — with --inject-faults — FaultyBackend shards
// throwing, stalling, and corrupting on a seeded, deterministic schedule
// so circuit breakers trip and recover throughout the run. Every ticket is
// accounted for (done/failed/shed — zero lost, exit 1 otherwise) and the
// tallies land in BENCH_streaming_soak.json.
//
// Drift soak (--drift, optionally with --soak-seconds=N) runs the full
// closed-loop recalibration demo instead: a two-qubit chip whose
// resonator responses rotate mid-run (sim ChipDrift phase ramp), every
// shot submitted as a ground-truth reference shot, the engine's drift
// monitors flagging the fidelity collapse, and a RecalibrationController
// refitting the full discriminator from its shot reservoir and
// hot-swapping both shards live — ingest never pauses. The run gates on
// detect -> retrain -> recover: the per-second fidelity series must dip
// during the ramp and the post-swap window must return to within 0.5% of
// the pre-drift baseline, with zero lost/rejected/shed tickets. The same
// run measures the data-parallel trainer (threads 1/2/4 on one synthetic
// problem, asserting bit-identical weights) and lands everything in
// BENCH_streaming_drift.json.
//
// Both soaks serve 64-shot micro-batches with a 100 us batch deadline.
// With no mode flag the binary prints its usage and exits 2.
//
//   MLQR_THREADS caps the classification fan-out; MLQR_SHOTS sizes the
//   fault soak's calibration dataset; MLQR_SOAK_RATE sets the fault-soak
//   arrival rate (shots/s); MLQR_DRIFT_RATE the drift-soak arrival rate;
//   MLQR_DRIFT_STRICT=0 drops the drift soak's timing-dependent trajectory
//   gates (sanitizer legs), keeping the accounting + bit-identity ones;
//   MLQR_SNAPSHOT=<prefix> makes the fault soak load <prefix>.float.snap
//   instead of retraining (first run trains and writes it); MLQR_FAST=1
//   shrinks the calibration to CI scale.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "nn/trainer.h"
#include "pipeline/fault_injection.h"
#include "pipeline/recalibration.h"
#include "pipeline/streaming_engine.h"
#include "readout/dataset.h"
#include "sim/readout_simulator.h"

namespace {

using namespace mlqr;
using Clock = std::chrono::steady_clock;

/// Micro-batch shape both soaks serve with.
constexpr std::size_t kBatchMax = 64;
constexpr std::size_t kDeadlineUs = 100;

constexpr const char* kUsage =
    "usage: streaming_throughput --soak-seconds=N [--inject-faults] "
    "[--seed=N]\n"
    "       streaming_throughput --drift [--soak-seconds=N] [--seed=N]\n";

struct SoakOptions {
  std::size_t seconds = 0;  ///< Fault soak length; 0 = not requested.
  bool inject_faults = false;
  bool drift = false;  ///< Closed-loop recalibration soak (own dataset).
  std::uint64_t seed = 20250807;
};

/// Sustained resilience run: Poisson traffic with bounded-blocking
/// admission, deadline shedding, concurrent hot-swaps, and (optionally)
/// seeded fault injection on every shard. Returns the process exit code:
/// nonzero when any ticket is lost or the books do not balance.
int run_soak(const EngineBackend& clean, const std::vector<IqTrace>& frames,
             const SoakOptions& opt) {
  using namespace mlqr::bench;
  const std::size_t n_shards = 2;
  const double rate = static_cast<double>(env_int("MLQR_SOAK_RATE", 20000));

  StreamingConfig scfg;
  scfg.queue_capacity = 4096;
  scfg.batch_max = kBatchMax;
  scfg.deadline_us = kDeadlineUs;
  scfg.shot_deadline_us = 20000;  // Shed anything older than 20 ms.
  scfg.quarantine_after = 3;
  scfg.probe_backoff_us = 2000;
  scfg.fallback = clean;  // Serves while every shard is quarantined.

  // Shard backends: plain copies, or FaultyBackend decorators whose
  // schedules stagger deterministic outage bursts (8 consecutive throws —
  // enough to trip quarantine_after = 3) across the two shards, on top of
  // low background throw/delay/corrupt rates. Every decision is a pure
  // function of (seed, call index): same seed, same fault sequence.
  std::vector<FaultyBackend> faulty;
  std::vector<EngineBackend> shards;
  for (std::size_t s = 0; s < n_shards; ++s) {
    if (!opt.inject_faults) {
      shards.push_back(clean);
      continue;
    }
    FaultPlan plan;
    plan.seed = opt.seed + s;
    plan.throw_rate = 0.002;
    plan.delay_rate = 0.002;
    plan.corrupt_rate = 0.0005;
    plan.delay_us = 200;
    for (std::uint64_t w = 0; w < 512; ++w) {
      const std::uint64_t begin = 300 + w * 2500 + s * 1200;
      plan.windows.push_back({begin, begin + 8, FaultKind::kThrow});
    }
    faulty.emplace_back(clean, plan);
    shards.push_back(faulty.back().backend());
  }
  const std::vector<EngineBackend> swap_pool = shards;  // Same fault state.
  StreamingEngine engine(std::move(shards), scfg);

  // Stamp buffer sized for the whole run (append-only by the one producer;
  // the consumer reads entries below n_submitted, published with release
  // ordering, so no resize may ever happen mid-run).
  const std::size_t cap = std::min<std::size_t>(
      static_cast<std::size_t>(rate * static_cast<double>(opt.seconds)) * 2 +
          65536,
      std::size_t{1} << 23);
  std::vector<Clock::time_point> submitted(cap);
  std::atomic<std::size_t> n_submitted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<bool> producer_done{false};

  std::cout << "[streaming_throughput] soak: " << opt.seconds << " s at "
            << rate << " shots/s, faults "
            << (opt.inject_faults ? "on" : "off") << ", seed " << opt.seed
            << "\n";
  const auto t_start = Clock::now();
  const auto t_end = t_start + std::chrono::seconds(opt.seconds);

  std::jthread producer([&] {
    Rng rng(opt.seed ^ 0x50A4ULL);
    std::size_t accepted = 0;
    auto next = Clock::now();
    while (Clock::now() < t_end && accepted < cap) {
      next += std::chrono::nanoseconds(
          static_cast<std::int64_t>(rng.exponential(rate) * 1e9));
      if (Clock::now() < next) std::this_thread::sleep_until(next);
      // Bounded-blocking admission: a full ring past the timeout drops the
      // arrival at the door (counted, never ticketed) instead of stalling
      // the producer's cycle.
      submitted[accepted] = Clock::now();
      if (engine
              .submit(frames[accepted % frames.size()],
                      {.timeout = std::chrono::microseconds(2000)})
              .has_value()) {
        ++accepted;
        n_submitted.store(accepted, std::memory_order_release);
      } else {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
    }
    producer_done.store(true);
  });

  std::jthread swapper([&] {
    std::size_t k = 0;
    while (!producer_done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      engine.swap_shard(k % n_shards, swap_pool[k % n_shards]);
      ++k;
    }
  });

  // In-order consumer: every issued ticket is waited exactly once, so any
  // lost ticket shows up as a hang (and the final books as a mismatch).
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::vector<double> micros;
  micros.reserve(cap);
  std::vector<int> labels(engine.num_qubits());
  std::size_t consumed = 0;
  for (;;) {
    const std::size_t avail = n_submitted.load(std::memory_order_acquire);
    if (consumed == avail) {
      if (producer_done.load()) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    while (consumed < avail) {
      switch (engine.wait_result(consumed, labels)) {
        case ShotStatus::kDone:
          ++done;
          micros.push_back(std::chrono::duration<double, std::micro>(
                               Clock::now() - submitted[consumed])
                               .count());
          break;
        case ShotStatus::kFailed:
          ++failed;
          break;
        case ShotStatus::kShed:
          ++shed;
          break;
        default:
          break;  // Unreachable: wait_result never times out.
      }
      ++consumed;
    }
  }
  producer.join();
  swapper.join();
  engine.drain();  // Every ticket already consumed: must not throw.
  const double wall =
      std::chrono::duration<double>(Clock::now() - t_start).count();

  const StreamingStats st = engine.stats();
  const LatencyStats lat = summarize_latency(std::move(micros));
  const std::uint64_t resolved = done + failed + shed;

  Table table("Streaming soak (" + std::to_string(opt.seconds) +
              " s Poisson @ " + Table::num(rate, 0) + "/s, faults " +
              (opt.inject_faults ? "on" : "off") + ")");
  table.set_header({"Metric", "Count"});
  const auto row = [&table](const char* k, std::uint64_t v) {
    table.add_row({k, std::to_string(v)});
  };
  row("submitted", st.submitted);
  row("done", done);
  row("failed", failed);
  row("shed", shed);
  row("rejected at admission", rejected.load());
  row("rerouted", st.rerouted);
  row("quarantines", st.quarantines);
  row("probes", st.probes);
  row("recoveries", st.recoveries);
  row("hot swaps", st.swaps);
  table.print();
  std::cout << "  achieved " << Table::num(resolved / wall, 0)
            << " shots/s, p50 " << Table::num(lat.p50_us, 1) << " us, p99 "
            << Table::num(lat.p99_us, 1) << " us\n";

  BenchReport report("streaming_soak");
  report.context("mode", std::string("soak"));
  report.context("soak_seconds", static_cast<std::int64_t>(opt.seconds));
  report.context("inject_faults", opt.inject_faults);
  report.context("seed", static_cast<std::int64_t>(opt.seed));
  report.context("target_rate", rate);
  report.context("threads_max",
                 static_cast<std::int64_t>(parallel_thread_count()));
  report.context("queue_capacity",
                 static_cast<std::int64_t>(scfg.queue_capacity));
  report.context("batch_max", static_cast<std::int64_t>(scfg.batch_max));
  report.context("deadline_us", static_cast<std::int64_t>(scfg.deadline_us));
  report.context("shot_deadline_us",
                 static_cast<std::int64_t>(scfg.shot_deadline_us));
  report.add_row({{"shards", static_cast<std::int64_t>(n_shards)},
                  {"achieved_rate", wall > 0.0 ? resolved / wall : 0.0},
                  {"submitted", static_cast<std::int64_t>(st.submitted)},
                  {"done", static_cast<std::int64_t>(done)},
                  {"failed", static_cast<std::int64_t>(failed)},
                  {"shed", static_cast<std::int64_t>(shed)},
                  {"rejected", static_cast<std::int64_t>(rejected.load())},
                  {"rerouted", static_cast<std::int64_t>(st.rerouted)},
                  {"quarantines", static_cast<std::int64_t>(st.quarantines)},
                  {"probes", static_cast<std::int64_t>(st.probes)},
                  {"recoveries", static_cast<std::int64_t>(st.recoveries)},
                  {"swaps", static_cast<std::int64_t>(st.swaps)},
                  {"p50_us", lat.p50_us},
                  {"p99_us", lat.p99_us}});
  const std::string json_path = report.save();
  std::cout << "  report written to " << json_path << "\n";

  // The acceptance gate: zero lost tickets, books balanced.
  bool ok = true;
  const auto expect = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::cerr << "[streaming_throughput] SOAK FAILURE: " << what << "\n";
      ok = false;
    }
  };
  expect(st.submitted == consumed, "every issued ticket was waited");
  expect(resolved == st.submitted, "every ticket resolved done/failed/shed");
  expect(st.completed == st.submitted, "engine books balance");
  expect(st.shed == shed, "shed tally matches engine counter");
  expect(st.failed == failed, "failure tally matches engine counter");
  if (opt.inject_faults) {
    expect(st.failed > 0, "injected faults produced failures");
    expect(st.quarantines > 0, "outage bursts tripped the breaker");
    expect(st.recoveries > 0, "probes re-admitted recovered shards");
  }
  std::cout << (ok ? "[streaming_throughput] soak OK: zero lost tickets\n"
                   : "[streaming_throughput] soak FAILED\n");
  return ok ? 0 : 1;
}

/// Serialized weights of one Mlp — bit-identity comparisons without
/// caring about the layer layout.
std::string weight_bits(const Mlp& m) {
  std::ostringstream os;
  m.save(os);
  return os.str();
}

/// Data-parallel trainer scaling rows for the drift report: one synthetic
/// classification problem trained with threads = 1 / 2 / 4, asserting
/// bit-identical weights across worker counts and recording wall time.
/// Returns false when any run's weights diverge from the 1-worker run.
bool add_trainer_scaling_rows(mlqr::bench::BenchReport& report,
                              std::uint64_t seed) {
  using namespace mlqr::bench;
  const std::size_t dim = 32;
  const std::size_t classes = 3;
  const std::size_t per_class = fast_scaled(4096, 4, 512);
  const std::size_t n = per_class * classes;
  std::vector<float> x(n * dim);
  std::vector<int> y(n);
  Rng rng(seed ^ 0x7A11ULL);
  for (std::size_t s = 0; s < n; ++s) {
    const int c = static_cast<int>(s % classes);
    y[s] = c;
    for (std::size_t d = 0; d < dim; ++d)
      x[s * dim + d] = static_cast<float>(rng.normal()) +
                       (d % classes == static_cast<std::size_t>(c) ? 2.0f : 0.0f);
  }

  TrainerConfig tcfg;
  tcfg.epochs = 3;
  tcfg.batch_size = 64;
  tcfg.seed = seed;
  tcfg.validation_fraction = 0.0f;

  std::string reference;
  double t1_seconds = 0.0;
  bool identical = true;
  for (const std::size_t workers : {1, 2, 4}) {
    Mlp model({dim, 64, 32, classes});
    Rng init(seed ^ 0x1234ULL);
    model.init_weights(init);
    tcfg.threads = workers;
    Timer timer;
    train_classifier(model, x, y, tcfg);
    const double secs = timer.seconds();
    const std::string bits = weight_bits(model);
    if (workers == 1) {
      reference = bits;
      t1_seconds = secs;
    } else if (bits != reference) {
      identical = false;
    }
    report.add_row(
        {{"kind", std::string("trainer_scaling")},
         {"threads", static_cast<std::int64_t>(workers)},
         {"train_seconds", secs},
         {"speedup_vs_1", secs > 0.0 ? t1_seconds / secs : 0.0},
         {"samples", static_cast<std::int64_t>(n)},
         {"bit_identical", workers == 1 || bits == reference}});
    std::cout << "  trainer threads=" << workers << ": "
              << Table::num(secs * 1e3, 1) << " ms"
              << (workers > 1 && bits != reference ? "  ** WEIGHTS DIVERGED **"
                                                   : "")
              << "\n";
  }
  return identical;
}

/// Closed-loop drift recalibration soak (--drift): simulate a chip whose
/// resonator responses rotate mid-run, stream every shot as a reference
/// shot with ground-truth labels, and let the drift monitors +
/// RecalibrationController detect, retrain (warm-start, data-parallel),
/// and hot-swap live. Exit nonzero unless the loop demonstrably closes:
/// fidelity dips during the ramp and recovers to within 0.5% of the
/// pre-drift baseline, with every ticket accounted for.
int run_drift_soak(const SoakOptions& opt) {
  using namespace mlqr::bench;
  const std::size_t seconds = std::max<std::size_t>(opt.seconds, 8);
  const double rate = static_cast<double>(env_int("MLQR_DRIFT_RATE", 4000));
  const std::size_t n_shards = 2;

  // ---- clean calibration on the two-qubit test chip -------------------
  DatasetConfig dcfg;
  dcfg.chip = ChipProfile::test_two_qubit();
  dcfg.shots_per_basis_state = 400;
  dcfg.train_fraction = 0.7;  // The soak wants a well-calibrated baseline.
  dcfg.seed = opt.seed;
  dcfg.use_clustered_labels = false;  // The soak studies drift, not mining.
  std::cout << "[streaming_throughput] drift soak: " << seconds << " s at "
            << rate << " shots/s, seed " << opt.seed
            << " (two-qubit chip, phase-ramp drift)\n";
  const ReadoutDataset ds = generate_dataset(dcfg);
  // Train the day-0 calibration to the same quality a reservoir retrain
  // reaches, so the pre-drift baseline reflects the model class, not an
  // undertrained head (the recovery gate compares against this baseline).
  ProposedConfig pcfg;
  pcfg.trainer.epochs = 40;
  pcfg.trainer.validation_fraction = 0.0f;
  const ProposedDiscriminator serving = ProposedDiscriminator::train(
      ds.shots, ds.training_labels, ds.train_idx, ds.chip, pcfg);
  const std::size_t n_qubits = serving.num_qubits();
  const BackendSnapshot snap0 = BackendSnapshot::wrap(serving);

  // Day-0 holdout fidelity: the absolute quality spec the closed loop must
  // serve at. The drift monitors' min_fidelity floor hangs off this, so a
  // swapped-in model that plateaus below spec (e.g. one retrained on
  // mid-ramp data) re-arms the controller for another retrain instead of
  // hiding behind its own fresh post-swap baseline.
  double f0 = 0.0;
  {
    InferenceScratch scratch;
    std::vector<int> out(n_qubits);
    std::size_t match = 0;
    for (const std::size_t s : ds.test_idx) {
      serving.classify_into(ds.shots.traces[s], scratch, out);
      for (std::size_t q = 0; q < n_qubits; ++q)
        if (out[q] == ds.training_labels[s * n_qubits + q]) ++match;
    }
    f0 = static_cast<double>(match) /
         static_cast<double>(ds.test_idx.size() * n_qubits);
  }

  // ---- drifted traffic pools: one per wall second ----------------------
  // Pure resonator-phase drift (SNR-preserving constellation rotation):
  // the features scramble — serving fidelity collapses — but the
  // information survives, so a refit can fully recover. The ramp spans
  // [0.25, 0.45] of the run, leaving a clean pre-drift baseline window
  // and enough post-ramp time for a corrective retrain cycle to settle.
  const double ramp_t0 = 0.25 * static_cast<double>(seconds);
  const double ramp_t1 = 0.45 * static_cast<double>(seconds);
  const double phase_deg = 60.0;
  ChipDrift drift_model;
  drift_model.qubits.resize(n_qubits);
  for (QubitDrift& q : drift_model.qubits)
    q.phase_deg = DriftSchedule::ramp(ramp_t0, 0.0, ramp_t1, phase_deg);

  // Pool size bounds the per-second fidelity noise floor: each pool shot
  // is resubmitted rate/pool_shots times, so the per-second estimate
  // averages over pool_shots (not rate) Bernoulli draws per qubit.
  const std::size_t pool_shots = 2048;
  std::vector<std::vector<int>> prepared;
  prepared.reserve(pool_shots);
  for (std::size_t i = 0; i < pool_shots; ++i) {
    std::vector<int> p(n_qubits);
    for (std::size_t q = 0; q < n_qubits; ++q)
      p[q] = static_cast<int>((i >> q) & 1);
    prepared.push_back(std::move(p));
  }
  struct EpochPool {
    std::vector<IqTrace> frames;
    std::vector<int> labels;  ///< Ground truth, flat (shot-major).
  };
  std::vector<EpochPool> pools(seconds);
  for (std::size_t t = 0; t < seconds; ++t) {
    // The simulator precomputes its response tables at construction, so
    // each drifted instant gets its own instance.
    const ReadoutSimulator sim(
        drift_model.apply(ds.chip, static_cast<double>(t)));
    std::vector<ShotRecord> recs =
        sim.simulate_batch(prepared, opt.seed + 7919 * t);
    pools[t].frames.reserve(recs.size());
    pools[t].labels.reserve(recs.size() * n_qubits);
    for (ShotRecord& r : recs) {
      pools[t].frames.push_back(std::move(r.trace));
      pools[t].labels.insert(pools[t].labels.end(), r.label.begin(),
                             r.label.end());
    }
  }

  // ---- engine with drift monitors on ----------------------------------
  StreamingConfig scfg;
  scfg.queue_capacity = 4096;
  scfg.batch_max = kBatchMax;
  scfg.deadline_us = kDeadlineUs;
  // Thresholds sized against EWMA noise. Every submitted shot is a
  // reference shot here, so at alpha = 0.001 the fidelity EWMA averages
  // ~1000 shots (a fraction of a second) — its noise is dominated by the
  // per-second pool sample (sigma ~ 0.003), which makes both the 0.05
  // relative drop and the absolute floor at f0 - 0.005 quiet in steady
  // state yet reliably crossed by real degradation.
  scfg.drift.enabled = true;
  scfg.drift.alpha = 0.001;
  scfg.drift.baseline_shots = 2048;
  scfg.drift.baseline_signal = 2048;
  scfg.drift.confidence_sample = 8;
  scfg.drift.min_samples = 2048;
  scfg.drift.fidelity_drop = 0.05;
  scfg.drift.confidence_drop = 0.10;
  scfg.drift.min_fidelity = f0 - 0.005;
  StreamingEngine engine(snap0.backend(), n_shards, scfg);

  // ---- recalibration controller ----------------------------------------
  RecalibrationConfig rcfg;
  rcfg.poll_interval = std::chrono::microseconds(50000);
  rcfg.consecutive_reports = 3;
  rcfg.cooldown = std::chrono::microseconds(1500000);
  rcfg.reservoir_capacity = 8192;
  rcfg.snapshot_path = "drift_recal.snap";  // Prove the persistence path.

  // Full recalibration, not a head-only touch-up: drift moves signal
  // energy out of the frozen matched-filter subspace, so the retrain
  // refits filters + normalizer + heads on the reservoir (the drifted
  // distribution). Trains via train_classifier on the pool, so retrain
  // throughput scales with workers on multi-core hosts.
  std::atomic<double> retrain_seconds{0.0};
  std::atomic<std::uint64_t> retrain_idx{0};
  const auto retrainer = [&](std::size_t, const DriftReport&,
                             const ShotReservoir& res) -> BackendSnapshot {
    ShotSet set;
    std::vector<int> labels_flat;
    const std::size_t n_all = res.snapshot(set.traces, labels_flat);
    if (n_all < 1024) return {};  // Too little labeled data: keep serving.
    // Train on the newest shots only: bounds retrain latency and keeps the
    // training set from the (current) post-drift distribution.
    const std::size_t n_cap = 4096;
    if (n_all > n_cap) {
      set.traces.erase(set.traces.begin(),
                       set.traces.begin() +
                           static_cast<std::ptrdiff_t>(n_all - n_cap));
      labels_flat.erase(labels_flat.begin(),
                        labels_flat.begin() + static_cast<std::ptrdiff_t>(
                                                  (n_all - n_cap) * n_qubits));
    }
    set.labels = std::move(labels_flat);
    set.n_qubits = n_qubits;
    std::vector<std::size_t> idx(set.size());
    std::iota(idx.begin(), idx.end(), 0);
    ProposedConfig rp = pcfg;
    rp.trainer.epochs = 40;
    // Distinct init per attempt: a floor-triggered repeat retrain on
    // near-identical data should not land in the identical local minimum.
    rp.trainer.seed = opt.seed + 131 * (1 + retrain_idx.fetch_add(1));
    Timer timer;
    ProposedDiscriminator next =
        ProposedDiscriminator::train(set, set.labels, idx, ds.chip, rp);
    retrain_seconds.store(retrain_seconds.load() + timer.seconds());
    return BackendSnapshot::wrap(std::move(next));
  };
  RecalibrationController controller(engine, retrainer, rcfg);

  // ---- traffic ---------------------------------------------------------
  const std::size_t cap = std::min<std::size_t>(
      static_cast<std::size_t>(rate * static_cast<double>(seconds)) * 2 +
          65536,
      std::size_t{1} << 23);
  std::vector<Clock::time_point> submitted(cap);
  std::vector<std::uint32_t> rec_pool(cap, 0);
  std::vector<std::uint32_t> rec_shot(cap, 0);
  std::atomic<std::size_t> n_submitted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<bool> producer_done{false};

  const auto t_start = Clock::now();
  const auto t_end = t_start + std::chrono::seconds(seconds);

  std::jthread producer([&] {
    Rng rng(opt.seed ^ 0xD21F7ULL);
    std::size_t accepted = 0;
    std::uint64_t key = 0;
    auto next = Clock::now();
    while (Clock::now() < t_end && accepted < cap) {
      next += std::chrono::nanoseconds(
          static_cast<std::int64_t>(rng.exponential(rate) * 1e9));
      if (Clock::now() < next) std::this_thread::sleep_until(next);
      const auto now = Clock::now();
      const std::size_t sec = std::min<std::size_t>(
          static_cast<std::size_t>(
              std::chrono::duration_cast<std::chrono::seconds>(now - t_start)
                  .count()),
          seconds - 1);
      const EpochPool& pool = pools[sec];
      const std::size_t shot = accepted % pool_shots;
      const std::span<const int> truth{pool.labels.data() + shot * n_qubits,
                                       n_qubits};
      submitted[accepted] = now;
      rec_pool[accepted] = static_cast<std::uint32_t>(sec);
      rec_shot[accepted] = static_cast<std::uint32_t>(shot);
      // Every shot is a reference shot: the drift monitors see live
      // fidelity, and the reservoir accumulates the labeled retrain set.
      // Bounded-blocking admission proves ingest never pauses (the gate
      // below requires zero rejections even across retrains and swaps).
      if (engine
              .submit(pool.frames[shot],
                      {.key = key++,
                       .expected = truth,
                       .timeout = std::chrono::microseconds(100000)})
              .has_value()) {
        controller.reservoir().push(pool.frames[shot], truth);
        ++accepted;
        n_submitted.store(accepted, std::memory_order_release);
      } else {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
    }
    producer_done.store(true);
  });

  // In-order consumer bucketing serving fidelity per wall second.
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::vector<double> sec_match(seconds, 0.0);
  std::vector<double> sec_total(seconds, 0.0);
  std::vector<double> micros;
  micros.reserve(cap);
  std::vector<int> labels(engine.num_qubits());
  std::size_t consumed = 0;
  for (;;) {
    const std::size_t avail = n_submitted.load(std::memory_order_acquire);
    if (consumed == avail) {
      if (producer_done.load()) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    while (consumed < avail) {
      switch (engine.wait_result(consumed, labels)) {
        case ShotStatus::kDone: {
          ++done;
          micros.push_back(std::chrono::duration<double, std::micro>(
                               Clock::now() - submitted[consumed])
                               .count());
          const std::size_t sec = rec_pool[consumed];
          const int* truth = pools[sec].labels.data() +
                             static_cast<std::size_t>(rec_shot[consumed]) *
                                 n_qubits;
          for (std::size_t q = 0; q < n_qubits; ++q)
            if (labels[q] == truth[q]) sec_match[sec] += 1.0;
          sec_total[sec] += static_cast<double>(n_qubits);
          break;
        }
        case ShotStatus::kFailed:
          ++failed;
          break;
        case ShotStatus::kShed:
          ++shed;
          break;
        default:
          break;  // Unreachable: wait_result never times out.
      }
      ++consumed;
    }
  }
  producer.join();
  engine.drain();
  controller.stop();
  const double wall =
      std::chrono::duration<double>(Clock::now() - t_start).count();

  const StreamingStats st = engine.stats();
  const RecalibrationStats rs = controller.stats();
  const LatencyStats lat = summarize_latency(std::move(micros));
  const std::uint64_t resolved = done + failed + shed;

  // ---- fidelity trajectory ---------------------------------------------
  const std::size_t drift_start = static_cast<std::size_t>(ramp_t0);
  std::vector<double> fidelity(seconds, 0.0);
  for (std::size_t t = 0; t < seconds; ++t)
    fidelity[t] = sec_total[t] > 0.0 ? sec_match[t] / sec_total[t] : 0.0;
  double base_sum = 0.0;
  std::size_t base_n = 0;
  for (std::size_t t = 1; t < drift_start; ++t) {
    base_sum += fidelity[t];
    ++base_n;
  }
  const double f_base = base_n > 0 ? base_sum / static_cast<double>(base_n) : 0.0;
  double f_min = 1.0;
  for (std::size_t t = drift_start; t < seconds; ++t)
    f_min = std::min(f_min, fidelity[t]);
  const std::size_t recovery_n = std::max<std::size_t>(seconds / 4, 3);
  double rec_sum = 0.0;
  for (std::size_t t = seconds - recovery_n; t < seconds; ++t)
    rec_sum += fidelity[t];
  const double f_recovered = rec_sum / static_cast<double>(recovery_n);

  Table table("Drift recalibration soak (" + std::to_string(seconds) +
              " s @ " + Table::num(rate, 0) + "/s, phase ramp " +
              Table::num(phase_deg, 0) + " deg)");
  table.set_header({"Second", "Fidelity", "Phase (deg)"});
  for (std::size_t t = 0; t < seconds; ++t)
    table.add_row({std::to_string(t), Table::num(fidelity[t], 4),
                   Table::num(drift_model.qubits[0].phase_deg.at(
                                  static_cast<double>(t)),
                              1)});
  table.print();
  std::cout << "  holdout f0 " << Table::num(f0, 4) << ", floor "
            << Table::num(scfg.drift.min_fidelity, 4) << "\n";
  std::cout << "  baseline " << Table::num(f_base, 4) << ", min "
            << Table::num(f_min, 4) << ", recovered "
            << Table::num(f_recovered, 4) << " | retrains " << rs.retrains
            << ", swaps " << rs.swaps << ", failures " << rs.failures
            << ", retrain time " << Table::num(retrain_seconds.load(), 2)
            << " s | p50 " << Table::num(lat.p50_us, 1) << " us, p99 "
            << Table::num(lat.p99_us, 1) << " us\n";

  BenchReport report("streaming_drift");
  report.context("mode", std::string("drift_soak"));
  report.context("soak_seconds", static_cast<std::int64_t>(seconds));
  report.context("seed", static_cast<std::int64_t>(opt.seed));
  report.context("target_rate", rate);
  report.context("phase_deg", phase_deg);
  report.context("holdout_fidelity", f0);
  report.context("min_fidelity_floor", scfg.drift.min_fidelity);
  report.context("ramp_t0", ramp_t0);
  report.context("ramp_t1", ramp_t1);
  report.context("threads_max",
                 static_cast<std::int64_t>(parallel_thread_count()));
  report.context("batch_max", static_cast<std::int64_t>(scfg.batch_max));
  for (std::size_t t = 0; t < seconds; ++t)
    report.add_row(
        {{"kind", std::string("fidelity")},
         {"second", static_cast<std::int64_t>(t)},
         {"fidelity", fidelity[t]},
         {"phase_deg", drift_model.qubits[0].phase_deg.at(
                           static_cast<double>(t))}});
  report.add_row({{"kind", std::string("summary")},
                  {"baseline_fidelity", f_base},
                  {"min_fidelity", f_min},
                  {"recovered_fidelity", f_recovered},
                  {"achieved_rate", wall > 0.0 ? resolved / wall : 0.0},
                  {"submitted", static_cast<std::int64_t>(st.submitted)},
                  {"done", static_cast<std::int64_t>(done)},
                  {"failed", static_cast<std::int64_t>(failed)},
                  {"shed", static_cast<std::int64_t>(shed)},
                  {"rejected", static_cast<std::int64_t>(rejected.load())},
                  {"reference_shots",
                   static_cast<std::int64_t>(st.reference_shots)},
                  {"scored_shots", static_cast<std::int64_t>(st.scored_shots)},
                  {"polls", static_cast<std::int64_t>(rs.polls)},
                  {"drift_flags", static_cast<std::int64_t>(rs.drift_flags)},
                  {"retrains", static_cast<std::int64_t>(rs.retrains)},
                  {"swaps", static_cast<std::int64_t>(rs.swaps)},
                  {"retrain_failures", static_cast<std::int64_t>(rs.failures)},
                  {"retrain_seconds", retrain_seconds.load()},
                  {"p50_us", lat.p50_us},
                  {"p99_us", lat.p99_us}});

  std::cout << "\n  data-parallel trainer scaling (bit-identity pinned):\n";
  const bool trainer_identical = add_trainer_scaling_rows(report, opt.seed);

  const std::string json_path = report.save();
  std::cout << "  report written to " << json_path << "\n";

  // ---- acceptance gates -------------------------------------------------
  bool ok = true;
  const auto expect = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::cerr << "[streaming_throughput] DRIFT SOAK FAILURE: " << what
                << "\n";
      ok = false;
    }
  };
  // MLQR_DRIFT_STRICT=0 keeps only the correctness/accounting gates and
  // drops the timing-dependent trajectory ones (dip depth, recovery
  // deadline, swap count, zero-rejection ingest). Sanitizer CI legs use
  // it: TSan slows the classify path ~10x and the 40-epoch retrain more,
  // so the loop still runs end to end but on a stretched clock.
  const bool strict = env_int("MLQR_DRIFT_STRICT", 1) != 0;
  expect(st.submitted == consumed, "every issued ticket was waited");
  expect(resolved == st.submitted, "every ticket resolved done/failed/shed");
  expect(st.completed == st.submitted, "engine books balance");
  expect(shed == 0, "no shot was shed");
  expect(failed == 0, "no shot failed");
  expect(st.reference_shots > 0, "drift monitors saw reference shots");
  expect(st.scored_shots > 0, "drift monitors sampled confidence");
  expect(rs.failures == 0, "no retrain failed");
  expect(trainer_identical,
         "trainer weights bit-identical across 1/2/4 workers");
  if (strict) {
    expect(rejected.load() == 0, "ingest never paused (zero rejections)");
    expect(rs.retrains >= 1, "controller retrained at least once");
    expect(rs.swaps >= 1, "controller hot-swapped at least once");
    expect(f_base > 0.8, "pre-drift baseline fidelity is sane");
    expect(f_min < f_base - 0.01,
           "the drift produced a visible fidelity dip");
    expect(f_recovered >= f_base - 0.005,
           "post-swap fidelity recovered to within 0.5% of baseline");
  } else {
    std::cout << "  (MLQR_DRIFT_STRICT=0: trajectory gates skipped)\n";
  }
  std::cout << (ok ? "[streaming_throughput] drift soak OK: detect -> "
                     "retrain -> recover closed the loop\n"
                   : "[streaming_throughput] drift soak FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mlqr::bench;

  SoakOptions soak;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--soak-seconds=", 0) == 0) {
      soak.seconds = static_cast<std::size_t>(
          std::strtoull(arg.c_str() + 15, nullptr, 10));
    } else if (arg == "--inject-faults") {
      soak.inject_faults = true;
    } else if (arg == "--drift") {
      soak.drift = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      soak.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else {
      std::cerr << "unknown flag " << arg << "\n" << kUsage;
      return 2;
    }
  }

  // The drift soak builds its own two-qubit dataset and serving backend
  // (the closed loop needs ground-truth labels and a drifting simulator).
  if (soak.drift) {
    if (soak.seconds == 0) soak.seconds = 20;
    return run_drift_soak(soak);
  }
  if (soak.seconds == 0) {
    std::cerr << kUsage;
    return 2;
  }

  DatasetConfig dcfg;
  dcfg.shots_per_basis_state =
      fast_scaled(static_cast<std::size_t>(env_int("MLQR_SHOTS", 200)), 2, 80);
  std::cout << "[streaming_throughput] generating dataset ("
            << dcfg.shots_per_basis_state << " shots/state)...\n";
  const ReadoutDataset ds = generate_dataset(dcfg);

  ProposedConfig pcfg;
  pcfg.trainer.epochs = fast_mode() ? 8 : 20;
  const BackendSnapshot serving =
      make_serving_backend(ds, pcfg, "streaming_throughput");

  std::vector<IqTrace> frames;
  frames.reserve(std::max<std::size_t>(ds.test_idx.size(), 1024));
  for (std::size_t s : ds.test_idx) frames.push_back(ds.shots.traces[s]);
  while (frames.size() < 1024)
    frames.push_back(frames[frames.size() % ds.test_idx.size()]);

  return run_soak(serving.backend(), frames, soak);
}
