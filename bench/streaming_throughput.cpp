// StreamingEngine soaks: two sustained, seeded correctness gates for the
// asynchronous serving path (the paper's Sec. 7(b) QEC-cycle serving
// shape — shots trickle in per cycle rather than arriving as preassembled
// batches). Both exit non-zero when their gate fails. Throughput and
// latency are measured by perfbench/ (workload qec_stream), not here.
//
// Both soaks run on one open-loop driver: Poisson arrivals with
// bounded-blocking admission (a submit timeout; overflow is rejected, not
// queued) and an in-order consumer that waits every ticket, so any lost
// ticket hangs the run and unbalanced books fail it.
//
// Fault soak (--soak-seconds=N): per-shot deadline shedding, a hot-swap
// thread cycling shard calibrations, and FaultyBackend shards throwing,
// stalling, and corrupting on a seeded, deterministic schedule so circuit
// breakers trip and recover throughout the run. Every ticket is accounted
// for (done/failed/shed — zero lost, exit 1 otherwise) and the tallies
// land in BENCH_streaming_soak.json.
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
// the pre-drift baseline, with zero lost/rejected/shed tickets. The
// series lands in BENCH_streaming_drift.json.
//
// Both soaks serve 64-shot micro-batches with a 100 us batch deadline.
// With no mode flag the binary prints its usage and exits 2.
//
// A ThreadSanitizer build serves ~10x slower, so it runs both soaks at a
// reduced arrival rate (10000 and 1500 shots/s instead of 20000 and 4000)
// and skips the drift soak's timing-dependent trajectory gates, keeping
// the accounting ones. MLQR_THREADS caps the classification fan-out;
// MLQR_FAST=1 shrinks the calibration to CI scale.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "discrim/proposed.h"
#include "pipeline/fault_injection.h"
#include "pipeline/recalibration.h"
#include "pipeline/snapshot.h"
#include "pipeline/streaming_engine.h"
#include "readout/dataset.h"
#include "sim/readout_simulator.h"

#if defined(__SANITIZE_THREAD__)
#define SOAK_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SOAK_UNDER_TSAN 1
#endif
#endif
#ifndef SOAK_UNDER_TSAN
#define SOAK_UNDER_TSAN 0
#endif

namespace {

using namespace mlqr;
using Clock = std::chrono::steady_clock;

constexpr bool kUnderTsan = SOAK_UNDER_TSAN != 0;

/// Micro-batch shape both soaks serve with.
constexpr std::size_t kBatchMax = 64;
constexpr std::size_t kDeadlineUs = 100;

constexpr const char* kUsage =
    "usage: streaming_throughput --soak-seconds=N [--seed=N]\n"
    "       streaming_throughput --drift [--soak-seconds=N] [--seed=N]\n";

struct SoakOptions {
  std::size_t seconds = 0;  ///< Fault soak length; 0 = not requested.
  bool drift = false;  ///< Closed-loop recalibration soak (own dataset).
  std::uint64_t seed = 20250807;
};

/// What one open-loop run left behind: the consumer's tallies, the
/// admission rejections and the served tickets' latencies.
struct Traffic {
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;  ///< Dropped at admission, never ticketed.
  std::size_t waited = 0;      ///< Tickets the consumer waited on.
  double wall_s = 0.0;
  LatencyStats latency;

  std::uint64_t resolved() const { return done + failed + shed; }
  double achieved_rate() const {
    return wall_s > 0.0 ? static_cast<double>(resolved()) / wall_s : 0.0;
  }
};

/// Offers arrival `ticket` (the count admitted so far) `at` its offset from
/// the start of the run; returns whether the engine admitted it.
using SubmitFn = std::function<bool(std::size_t ticket, Clock::duration at)>;
/// Sees each served ticket's labels, with the same `at` its submit saw.
using DoneFn = std::function<void(std::size_t ticket, Clock::duration at,
                                  std::span<const int> labels)>;

/// The open-loop driver both soaks share. A producer thread offers Poisson
/// arrivals at `rate` for `seconds` through `submit`, whose timeout bounds
/// admission: a full ring past it drops the arrival at the door (counted,
/// never ticketed) instead of stalling the producer's cycle. The calling
/// thread consumes in order: every admitted ticket is waited exactly once,
/// so a lost ticket shows up as a hang (and the final books as a mismatch).
Traffic drive(StreamingEngine& engine, double rate, std::size_t seconds,
              std::uint64_t rng_seed, const SubmitFn& submit,
              const DoneFn& on_done = {}) {
  // Stamp buffer sized for the whole run (append-only by the one producer;
  // the consumer reads entries below n_submitted, published with release
  // ordering, so no resize may ever happen mid-run).
  const std::size_t cap = std::min<std::size_t>(
      static_cast<std::size_t>(rate * static_cast<double>(seconds)) * 2 +
          65536,
      std::size_t{1} << 23);
  std::vector<Clock::time_point> stamps(cap);
  std::atomic<std::size_t> n_submitted{0};
  std::atomic<bool> producer_done{false};
  Traffic t;

  const auto t_start = Clock::now();
  const auto t_end = t_start + std::chrono::seconds(seconds);
  std::jthread producer([&] {
    Rng rng(rng_seed);
    std::size_t accepted = 0;
    auto next = Clock::now();
    while (Clock::now() < t_end && accepted < cap) {
      next += std::chrono::nanoseconds(
          static_cast<std::int64_t>(rng.exponential(rate) * 1e9));
      if (Clock::now() < next) std::this_thread::sleep_until(next);
      stamps[accepted] = Clock::now();
      if (submit(accepted, stamps[accepted] - t_start)) {
        ++accepted;
        n_submitted.store(accepted, std::memory_order_release);
      } else {
        ++t.rejected;  // Producer-only until the join below.
      }
    }
    producer_done.store(true);
  });

  std::vector<double> micros;
  micros.reserve(cap);
  std::vector<int> labels(engine.num_qubits());
  for (;;) {
    const std::size_t avail = n_submitted.load(std::memory_order_acquire);
    if (t.waited == avail) {
      if (producer_done.load()) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    for (; t.waited < avail; ++t.waited) {
      switch (engine.wait_result(t.waited, labels)) {
        case ShotStatus::kDone:
          ++t.done;
          micros.push_back(std::chrono::duration<double, std::micro>(
                               Clock::now() - stamps[t.waited])
                               .count());
          if (on_done) on_done(t.waited, stamps[t.waited] - t_start, labels);
          break;
        case ShotStatus::kFailed:
          ++t.failed;
          break;
        case ShotStatus::kShed:
          ++t.shed;
          break;
        default:
          break;  // Unreachable: wait_result never times out.
      }
    }
  }
  producer.join();
  t.wall_s = std::chrono::duration<double>(Clock::now() - t_start).count();
  t.latency = summarize_latency(std::move(micros));
  return t;
}

/// One soak's acceptance gate: prints every failed expectation and turns
/// the verdict into the process exit code.
class Gate {
 public:
  explicit Gate(const char* soak) : soak_(soak) {}

  void expect(bool cond, const char* what) {
    if (cond) return;
    std::cerr << "[streaming_throughput] " << soak_ << " FAILURE: " << what
              << "\n";
    ok_ = false;
  }

  /// The books both soaks must balance: zero lost tickets, and the
  /// consumer's tallies equal the engine's counters.
  void books(const Traffic& t, const StreamingStats& st) {
    expect(st.submitted == t.waited, "every issued ticket was waited");
    expect(t.resolved() == st.submitted,
           "every ticket resolved done/failed/shed");
    expect(st.completed == st.submitted, "engine books balance");
    expect(st.shed == t.shed, "shed tally matches engine counter");
    expect(st.failed == t.failed, "failure tally matches engine counter");
  }

  int exit_code(const char* ok_line) const {
    std::cout << "[streaming_throughput] ";
    if (ok_)
      std::cout << ok_line << "\n";
    else
      std::cout << soak_ << " FAILED\n";
    return ok_ ? 0 : 1;
  }

 private:
  const char* soak_;
  bool ok_ = true;
};

/// Sustained resilience run: Poisson traffic with bounded-blocking
/// admission, deadline shedding, concurrent hot-swaps, and seeded fault
/// injection on every shard. Returns the process exit code: nonzero when
/// any ticket is lost, the books do not balance, or the faults never trip
/// and recover a breaker.
int run_soak(const EngineBackend& clean, const std::vector<IqTrace>& frames,
             const SoakOptions& opt) {
  using namespace mlqr::bench;
  const std::size_t n_shards = 2;
  const double rate = kUnderTsan ? 10000.0 : 20000.0;

  StreamingConfig scfg;
  scfg.queue_capacity = 4096;
  scfg.batch_max = kBatchMax;
  scfg.deadline_us = kDeadlineUs;
  scfg.shot_deadline_us = 20000;  // Shed anything older than 20 ms.
  scfg.quarantine_after = 3;
  scfg.probe_backoff_us = 2000;
  scfg.fallback = clean;  // Serves while every shard is quarantined.

  // Shard backends: FaultyBackend decorators whose schedules stagger
  // deterministic outage bursts (8 consecutive throws — enough to trip
  // quarantine_after = 3) across the two shards, on top of low background
  // throw/delay/corrupt rates. Every decision is a pure function of
  // (seed, call index): same seed, same fault sequence.
  std::vector<FaultyBackend> faulty;
  std::vector<EngineBackend> shards;
  for (std::size_t s = 0; s < n_shards; ++s) {
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

  std::cout << "[streaming_throughput] soak: " << opt.seconds << " s at "
            << rate << " shots/s, seed " << opt.seed << "\n";
  Traffic traffic;
  {
    std::jthread swapper([&](std::stop_token stop) {
      for (std::size_t k = 0; !stop.stop_requested(); ++k) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        engine.swap_shard(k % n_shards, swap_pool[k % n_shards]);
      }
    });
    const auto submit = [&](std::size_t ticket, Clock::duration) {
      return engine
          .submit(frames[ticket % frames.size()],
                  {.timeout = std::chrono::microseconds(2000)})
          .has_value();
    };
    traffic = drive(engine, rate, opt.seconds, opt.seed ^ 0x50A4ULL, submit);
  }  // The swapper stops and joins here.
  engine.drain();  // Every ticket already consumed: must not throw.

  const StreamingStats st = engine.stats();
  const LatencyStats& lat = traffic.latency;

  // One list feeds the printed table and the report row.
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"submitted", st.submitted}, {"done", traffic.done},
      {"failed", traffic.failed}, {"shed", traffic.shed},
      {"rejected", traffic.rejected}, {"rerouted", st.rerouted},
      {"quarantines", st.quarantines}, {"probes", st.probes},
      {"recoveries", st.recoveries}, {"swaps", st.swaps}};
  Table table("Streaming fault soak (" + std::to_string(opt.seconds) +
              " s Poisson @ " + Table::num(rate, 0) + "/s)");
  table.set_header({"Metric", "Count"});
  BenchReport::Fields row{{"shards", static_cast<std::int64_t>(n_shards)},
                          {"achieved_rate", traffic.achieved_rate()}};
  for (const auto& [name, count] : counts) {
    table.add_row({name, std::to_string(count)});
    row.emplace_back(name, static_cast<std::int64_t>(count));
  }
  row.emplace_back("p50_us", lat.p50_us);
  row.emplace_back("p99_us", lat.p99_us);
  table.print();
  std::cout << "  achieved " << Table::num(traffic.achieved_rate(), 0)
            << " shots/s, p50 " << Table::num(lat.p50_us, 1) << " us, p99 "
            << Table::num(lat.p99_us, 1) << " us\n";

  BenchReport report("streaming_soak");
  report.context("mode", std::string("soak"));
  report.context("soak_seconds", static_cast<std::int64_t>(opt.seconds));
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
  report.add_row(std::move(row));
  const std::string json_path = report.save();
  std::cout << "  report written to " << json_path << "\n";

  Gate gate("SOAK");
  gate.books(traffic, st);
  gate.expect(st.failed > 0, "injected faults produced failures");
  gate.expect(st.quarantines > 0, "outage bursts tripped the breaker");
  gate.expect(st.recoveries > 0, "probes re-admitted recovered shards");
  return gate.exit_code("soak OK: zero lost tickets");
}

/// Closed-loop drift recalibration soak (--drift): simulate a chip whose
/// resonator responses rotate mid-run, stream every shot as a reference
/// shot with ground-truth labels, and let the drift monitors +
/// RecalibrationController detect, retrain (cold, data-parallel),
/// and hot-swap live. Exit nonzero unless the loop demonstrably closes:
/// fidelity dips during the ramp and recovers to within 0.5% of the
/// pre-drift baseline, with every ticket accounted for.
int run_drift_soak(const SoakOptions& opt) {
  using namespace mlqr::bench;
  const std::size_t seconds = std::max<std::size_t>(opt.seconds, 8);
  const double rate = kUnderTsan ? 1500.0 : 4000.0;
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
  drift_model.phase_deg.assign(
      n_qubits, DriftSchedule::ramp(ramp_t0, 0.0, ramp_t1, phase_deg));

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
  // Ticket i serves shot i % pool_shots of the pool for the wall second it
  // was submitted in; the consumer buckets serving fidelity by that second.
  const auto second_of = [seconds](Clock::duration at) {
    return std::min<std::size_t>(
        static_cast<std::size_t>(
            std::chrono::duration_cast<std::chrono::seconds>(at).count()),
        seconds - 1);
  };
  std::uint64_t key = 0;
  const auto submit = [&](std::size_t ticket, Clock::duration at) {
    const EpochPool& pool = pools[second_of(at)];
    const std::size_t shot = ticket % pool_shots;
    const std::span<const int> truth{pool.labels.data() + shot * n_qubits,
                                     n_qubits};
    // Every shot is a reference shot: the drift monitors see live
    // fidelity, and the reservoir accumulates the labeled retrain set.
    // Bounded-blocking admission proves ingest never pauses (the gate
    // below requires zero rejections even across retrains and swaps).
    if (!engine
             .submit(pool.frames[shot],
                     {.key = key++,
                      .expected = truth,
                      .timeout = std::chrono::microseconds(100000)})
             .has_value())
      return false;
    controller.reservoir().push(pool.frames[shot], truth);
    return true;
  };
  std::vector<double> sec_match(seconds, 0.0);
  std::vector<double> sec_total(seconds, 0.0);
  const auto on_done = [&](std::size_t ticket, Clock::duration at,
                           std::span<const int> labels) {
    const std::size_t sec = second_of(at);
    const int* truth =
        pools[sec].labels.data() + (ticket % pool_shots) * n_qubits;
    for (std::size_t q = 0; q < n_qubits; ++q)
      if (labels[q] == truth[q]) sec_match[sec] += 1.0;
    sec_total[sec] += static_cast<double>(n_qubits);
  };
  const Traffic traffic =
      drive(engine, rate, seconds, opt.seed ^ 0xD21F7ULL, submit, on_done);
  engine.drain();
  controller.stop();

  const StreamingStats st = engine.stats();
  const RecalibrationStats rs = controller.stats();
  const LatencyStats& lat = traffic.latency;

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
                   Table::num(
                       drift_model.phase_deg[0].at(static_cast<double>(t)),
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
         {"phase_deg",
          drift_model.phase_deg[0].at(static_cast<double>(t))}});
  report.add_row({{"kind", std::string("summary")},
                  {"baseline_fidelity", f_base},
                  {"min_fidelity", f_min},
                  {"recovered_fidelity", f_recovered},
                  {"achieved_rate", traffic.achieved_rate()},
                  {"submitted", static_cast<std::int64_t>(st.submitted)},
                  {"done", static_cast<std::int64_t>(traffic.done)},
                  {"failed", static_cast<std::int64_t>(traffic.failed)},
                  {"shed", static_cast<std::int64_t>(traffic.shed)},
                  {"rejected", static_cast<std::int64_t>(traffic.rejected)},
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
  const std::string json_path = report.save();
  std::cout << "  report written to " << json_path << "\n";

  // ---- acceptance gates -------------------------------------------------
  Gate gate("DRIFT SOAK");
  gate.books(traffic, st);
  gate.expect(traffic.shed == 0, "no shot was shed");
  gate.expect(traffic.failed == 0, "no shot failed");
  gate.expect(st.reference_shots > 0, "drift monitors saw reference shots");
  gate.expect(st.scored_shots > 0, "drift monitors sampled confidence");
  gate.expect(rs.failures == 0, "no retrain failed");
  // The trajectory gates (dip depth, recovery deadline, swap count,
  // zero-rejection ingest) depend on timing. A ThreadSanitizer build slows
  // the classify path ~10x and the 40-epoch retrain more, so the loop
  // still runs end to end there but on a stretched clock, and only the
  // accounting gates above apply.
  if (kUnderTsan) {
    std::cout << "  (ThreadSanitizer build: trajectory gates skipped)\n";
  } else {
    gate.expect(traffic.rejected == 0, "ingest never paused (zero rejections)");
    gate.expect(rs.retrains >= 1, "controller retrained at least once");
    gate.expect(rs.swaps >= 1, "controller hot-swapped at least once");
    gate.expect(f_base > 0.8, "pre-drift baseline fidelity is sane");
    gate.expect(f_min < f_base - 0.01,
                "the drift produced a visible fidelity dip");
    gate.expect(f_recovered >= f_base - 0.005,
                "post-swap fidelity recovered to within 0.5% of baseline");
  }
  return gate.exit_code(
      "drift soak OK: detect -> retrain -> recover closed the loop");
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
  dcfg.shots_per_basis_state = fast_scaled(200, 2, 80);
  std::cout << "[streaming_throughput] generating dataset ("
            << dcfg.shots_per_basis_state << " shots/state)...\n";
  const ReadoutDataset ds = generate_dataset(dcfg);

  ProposedConfig pcfg;
  pcfg.trainer.epochs = fast_mode() ? 8 : 20;
  std::cout << "[streaming_throughput] training proposed discriminator...\n";
  const BackendSnapshot serving =
      BackendSnapshot::wrap(ProposedDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip, pcfg));

  std::vector<IqTrace> frames;
  frames.reserve(std::max<std::size_t>(ds.test_idx.size(), 1024));
  for (std::size_t s : ds.test_idx) frames.push_back(ds.shots.traces[s]);
  while (frames.size() < 1024)
    frames.push_back(frames[frames.size() % ds.test_idx.size()]);

  return run_soak(serving.backend(), frames, soak);
}
