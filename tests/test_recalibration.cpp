// The closed-loop recalibration layer: DriftSchedule / ChipDrift workload
// models, the streaming engine's drift monitors, the hysteresis+cooldown
// policy, the shot reservoir, and the RecalibrationController end to end
// (detect -> retrain -> hot-swap, with failure containment). The
// concurrency tests double as TSan targets: reference submits, drift(),
// stats(), reservoir pushes, and swap_shard all race on purpose.
#include "pipeline/recalibration.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <complex>
#include <numbers>
#include <optional>
#include <thread>
#include <vector>

#include "common/error.h"
#include "discrim/proposed.h"
#include "pipeline/drift_monitor.h"
#include "pipeline/streaming_engine.h"
#include "readout/dataset.h"
#include "sim/chip_profile.h"

namespace mlqr {
namespace {

using namespace std::chrono_literals;

// ---- DriftSchedule ------------------------------------------------------

TEST(DriftSchedule, EmptyIsZero) {
  DriftSchedule s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.at(-1.0), 0.0);
  EXPECT_EQ(s.at(123.0), 0.0);
}

TEST(DriftSchedule, ConstantEverywhere) {
  const DriftSchedule s = DriftSchedule::constant(2.5);
  EXPECT_EQ(s.at(-10.0), 2.5);
  EXPECT_EQ(s.at(0.0), 2.5);
  EXPECT_EQ(s.at(10.0), 2.5);
}

TEST(DriftSchedule, RampClampsAndInterpolates) {
  const DriftSchedule s = DriftSchedule::ramp(2.0, 0.0, 6.0, 8.0);
  EXPECT_EQ(s.at(0.0), 0.0);   // Clamped before.
  EXPECT_EQ(s.at(2.0), 0.0);
  EXPECT_DOUBLE_EQ(s.at(3.0), 2.0);
  EXPECT_DOUBLE_EQ(s.at(5.0), 6.0);
  EXPECT_EQ(s.at(6.0), 8.0);
  EXPECT_EQ(s.at(100.0), 8.0);  // Clamped after.
}

TEST(DriftSchedule, RampRejectsBackwardsTime) {
  EXPECT_THROW(DriftSchedule::ramp(5.0, 0.0, 4.0, 1.0), Error);
}

TEST(DriftSchedule, DuplicateKnotIsAStep) {
  DriftSchedule s;
  s.add_knot(3.0, 1.0);
  s.add_knot(3.0, 7.0);
  EXPECT_EQ(s.at(2.999), 1.0);
  EXPECT_EQ(s.at(3.0), 7.0);  // Later duplicate-time knot wins from t on.
  EXPECT_EQ(s.at(10.0), 7.0);
}

TEST(DriftSchedule, AddKnotKeepsSortedOrder) {
  DriftSchedule s;
  s.add_knot(4.0, 4.0);
  s.add_knot(0.0, 0.0);
  s.add_knot(2.0, 1.0);
  EXPECT_DOUBLE_EQ(s.at(1.0), 0.5);
  EXPECT_DOUBLE_EQ(s.at(3.0), 2.5);
}

// ---- ChipDrift ----------------------------------------------------------

TEST(ChipDrift, PhaseRotationPreservesMagnitude) {
  const ChipProfile base = ChipProfile::test_two_qubit();
  ChipDrift d;
  d.phase_deg = {DriftSchedule::constant(90.0)};
  const ChipProfile out = d.apply(base, 0.0);
  for (int l = 0; l < kNumLevels; ++l) {
    EXPECT_NEAR(std::abs(out.qubits[0].alpha[l]),
                std::abs(base.qubits[0].alpha[l]), 1e-12);
    // 90 degrees: (re, im) -> (-im, re).
    EXPECT_NEAR(out.qubits[0].alpha[l].real(),
                -base.qubits[0].alpha[l].imag(), 1e-12);
    EXPECT_NEAR(out.qubits[0].alpha[l].imag(),
                base.qubits[0].alpha[l].real(), 1e-12);
  }
  // Qubit 1 has no drift entry: untouched.
  for (int l = 0; l < kNumLevels; ++l)
    EXPECT_EQ(out.qubits[1].alpha[l], base.qubits[1].alpha[l]);
}

TEST(ChipDrift, TimeVaryingRampEvaluatesPerInstant) {
  const ChipProfile base = ChipProfile::test_two_qubit();
  ChipDrift d;
  d.phase_deg = {DriftSchedule::ramp(0.0, 0.0, 10.0, 90.0)};
  // Halfway the response has turned 45 degrees; at the end, 90.
  const std::complex<double> a = base.qubits[0].alpha[1];
  const std::complex<double> mid = d.apply(base, 5.0).qubits[0].alpha[1];
  EXPECT_NEAR(std::arg(mid / a), std::numbers::pi / 4, 1e-12);
  const std::complex<double> end = d.apply(base, 10.0).qubits[0].alpha[1];
  EXPECT_NEAR(end.real(), -a.imag(), 1e-12);
  EXPECT_NEAR(end.imag(), a.real(), 1e-12);
}

// ---- ShotReservoir ------------------------------------------------------

IqTrace trace_of(float v) {
  IqTrace t(4);
  t.i.assign(4, v);
  t.q.assign(4, -v);
  return t;
}

TEST(ShotReservoir, KeepsNewestInOrder) {
  ShotReservoir res(3, 2);
  EXPECT_EQ(res.capacity(), 3u);
  EXPECT_EQ(res.num_qubits(), 2u);
  for (int k = 0; k < 5; ++k) {
    const std::vector<int> labels{k, k + 10};
    res.push(trace_of(static_cast<float>(k)), labels);
  }
  EXPECT_EQ(res.size(), 3u);
  std::vector<IqTrace> frames;
  std::vector<int> labels_flat;
  ASSERT_EQ(res.snapshot(frames, labels_flat), 3u);
  // Oldest-first consistent cut: shots 2, 3, 4 survive.
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(frames[k].i[0], static_cast<float>(k + 2));
    EXPECT_EQ(labels_flat[2 * k], k + 2);
    EXPECT_EQ(labels_flat[2 * k + 1], k + 12);
  }
}

TEST(ShotReservoir, RejectsWrongLabelCount) {
  ShotReservoir res(4, 2);
  const std::vector<int> wrong{1};
  EXPECT_THROW(res.push(trace_of(0.0f), wrong), Error);
}

TEST(ShotReservoir, ConcurrentPushersStaySane) {
  ShotReservoir res(64, 2);
  std::vector<std::jthread> pushers;
  for (int p = 0; p < 4; ++p)
    pushers.emplace_back([&res, p] {
      const std::vector<int> labels{p, p};
      for (int k = 0; k < 200; ++k)
        res.push(trace_of(static_cast<float>(p)), labels);
    });
  pushers.clear();
  std::vector<IqTrace> frames;
  std::vector<int> labels_flat;
  EXPECT_EQ(res.snapshot(frames, labels_flat), 64u);
  for (std::size_t k = 0; k < 64; ++k) {
    // Every surviving entry is one pusher's intact (frame, labels) pair.
    const int p = labels_flat[2 * k];
    EXPECT_EQ(labels_flat[2 * k + 1], p);
    EXPECT_EQ(frames[k].i[0], static_cast<float>(p));
  }
}

// ---- RecalibrationPolicy ------------------------------------------------

using PolicyClock = RecalibrationPolicy::Clock;
using Action = RecalibrationPolicy::Action;

TEST(RecalibrationPolicy, HysteresisRequiresConsecutiveReports) {
  RecalibrationPolicy p(1, /*consecutive_reports=*/3, 0us);
  const auto t = PolicyClock::now();
  EXPECT_EQ(p.observe(0, true, t), Action::kNone);
  EXPECT_EQ(p.observe(0, true, t), Action::kNone);
  EXPECT_EQ(p.observe(0, true, t), Action::kRetrain);
}

TEST(RecalibrationPolicy, CleanPollResetsTheStreak) {
  RecalibrationPolicy p(1, 2, 0us);
  const auto t = PolicyClock::now();
  EXPECT_EQ(p.observe(0, true, t), Action::kNone);
  EXPECT_EQ(p.observe(0, false, t), Action::kNone);  // Streak resets.
  EXPECT_EQ(p.streak(0), 0u);
  EXPECT_EQ(p.observe(0, true, t), Action::kNone);
  EXPECT_EQ(p.observe(0, true, t), Action::kRetrain);
}

TEST(RecalibrationPolicy, NoRetrainWhileRetrainingOrCoolingDown) {
  RecalibrationPolicy p(1, 1, /*cooldown=*/1h);
  const auto t = PolicyClock::now();
  EXPECT_EQ(p.observe(0, true, t), Action::kRetrain);
  EXPECT_TRUE(p.retraining(0));
  // Drifted reports during the retrain never double-fire.
  EXPECT_EQ(p.observe(0, true, t), Action::kNone);
  p.retrain_done(0, t);
  EXPECT_FALSE(p.retraining(0));
  // Cooldown window: still suppressed, streak does not even build.
  EXPECT_EQ(p.observe(0, true, t + 1s), Action::kNone);
  // After the cooldown expires the next drifted poll fires again.
  EXPECT_EQ(p.observe(0, true, t + 2h), Action::kRetrain);
}

TEST(RecalibrationPolicy, ShardsAreIndependent) {
  RecalibrationPolicy p(2, 2, 0us);
  const auto t = PolicyClock::now();
  EXPECT_EQ(p.observe(0, true, t), Action::kNone);
  EXPECT_EQ(p.observe(1, true, t), Action::kNone);
  EXPECT_EQ(p.observe(0, true, t), Action::kRetrain);
  EXPECT_TRUE(p.retraining(0));
  EXPECT_FALSE(p.retraining(1));
  EXPECT_EQ(p.observe(1, true, t), Action::kRetrain);
}

// ---- DriftMonitor: a pure value, driven directly -------------------------

DriftConfig fast_drift_config() {
  DriftConfig cfg;
  cfg.enabled = true;
  cfg.alpha = 0.2;  // Fast EWMAs: tests drive with tens of shots.
  cfg.baseline_shots = 16;
  cfg.baseline_signal = 16;
  cfg.min_samples = 16;
  return cfg;
}

/// Folds `n` identical OK shots into `m`: served `labels`, an optional
/// sampled confidence, and reference ground truth (empty = regular shot).
void observe_n(DriftMonitor& m, std::size_t n, const std::vector<int>& labels,
               std::optional<float> confidence,
               const std::vector<int>& expected = {}) {
  for (std::size_t k = 0; k < n; ++k) m.observe(labels, confidence, expected);
}

TEST(DriftMonitor, NotReadyBeforeMinSamples) {
  const DriftConfig cfg = fast_drift_config();
  DriftMonitor m(cfg);
  observe_n(m, 4, {0, 0}, 0.9f);
  const DriftReport r = m.report(cfg);
  EXPECT_FALSE(r.ready);
  EXPECT_FALSE(r.drifted);
  EXPECT_EQ(r.samples, 4u);
  observe_n(m, 60, {0, 0}, 0.9f);
  EXPECT_TRUE(m.report(cfg).ready);
  EXPECT_FALSE(m.report(DriftConfig{}).ready);  // Disabled: never ready.
}

TEST(DriftMonitor, ConfidenceDropCrossesThreshold) {
  DriftConfig cfg = fast_drift_config();
  cfg.confidence_drop = 0.10;  // Relative.
  DriftMonitor m(cfg);

  observe_n(m, 64, {0, 0}, 0.9f);  // Baseline at confidence 0.9.
  DriftReport r = m.report(cfg);
  ASSERT_TRUE(r.ready);
  EXPECT_FALSE(r.drifted);
  EXPECT_NEAR(r.baseline_confidence, 0.9, 1e-6);
  EXPECT_EQ(r.scored, 64u);

  observe_n(m, 64, {0, 0}, 0.6f);  // 33% drop >> 10% threshold.
  r = m.report(cfg);
  EXPECT_TRUE(r.drifted);
  EXPECT_LT(r.confidence, r.baseline_confidence * 0.9);
}

TEST(DriftMonitor, FidelityDropOnReferenceShots) {
  DriftConfig cfg = fast_drift_config();
  cfg.fidelity_drop = 0.05;
  DriftMonitor m(cfg);

  // Served 0s against expected 0s -> fidelity baseline 1.0.
  observe_n(m, 64, {0, 0}, std::nullopt, {0, 0});
  DriftReport r = m.report(cfg);
  ASSERT_TRUE(r.ready);
  EXPECT_FALSE(r.drifted);
  EXPECT_NEAR(r.baseline_fidelity, 1.0, 1e-6);
  EXPECT_EQ(r.reference, 64u);
  EXPECT_EQ(r.scored, 0u);

  // Now the device "drifts": half the expected qubits stop matching.
  observe_n(m, 64, {0, 0}, std::nullopt, {0, 1});
  r = m.report(cfg);
  EXPECT_TRUE(r.drifted);
  EXPECT_LT(r.fidelity, 0.6);
  EXPECT_EQ(r.reference, 128u);
}

TEST(DriftMonitor, AbsoluteFidelityFloor) {
  DriftConfig cfg = fast_drift_config();
  cfg.fidelity_drop = 1.0;  // Disable the relative check.
  cfg.min_fidelity = 0.95;
  DriftMonitor m(cfg);

  observe_n(m, 64, {0, 0}, std::nullopt, {0, 0});
  EXPECT_FALSE(m.report(cfg).drifted);
  observe_n(m, 64, {0, 0}, std::nullopt, {1, 1});  // EWMA collapses < 0.95.
  EXPECT_TRUE(m.report(cfg).drifted);
}

TEST(DriftMonitor, LabelMixShiftTripsL1) {
  DriftConfig cfg = fast_drift_config();
  cfg.confidence_drop = 1.0;  // Isolate the label-mix signal.
  cfg.fidelity_drop = 1.0;
  DriftMonitor m(cfg);

  observe_n(m, 64, {0, 0}, 0.9f);  // All-0 labels establish the baseline mix.
  EXPECT_FALSE(m.report(cfg).drifted);
  observe_n(m, 64, {1, 1}, 0.9f);  // Served labels flip to all-1.
  const DriftReport r = m.report(cfg);
  EXPECT_TRUE(r.drifted);
  EXPECT_GT(r.label_l1, 0.5);
}

// ---- drift monitors wired into the StreamingEngine ----------------------

/// Scored two-qubit backend with runtime-adjustable labels + confidence.
struct FakeKnobs {
  std::atomic<int> label{0};
  std::atomic<float> confidence{0.9f};
};

EngineBackend fake_scored_backend(std::shared_ptr<FakeKnobs> knobs) {
  return EngineBackend(
      "fake", 2,
      [knobs](const IqTrace&, InferenceScratch&, std::span<int> out) {
        std::fill(out.begin(), out.end(), knobs->label.load());
      },
      /*batch_fn=*/{},
      [knobs](const IqTrace&, InferenceScratch&, std::span<int> out) {
        std::fill(out.begin(), out.end(), knobs->label.load());
        return knobs->confidence.load();
      });
}

StreamingConfig drifty_config() {
  StreamingConfig cfg;
  cfg.queue_capacity = 256;
  cfg.batch_max = 8;
  cfg.deadline_us = 50;
  cfg.drift = fast_drift_config();
  cfg.drift.confidence_sample = 1;  // Score every shot.
  return cfg;
}

void feed(StreamingEngine& eng, std::size_t n) {
  const IqTrace frame(256);
  for (std::size_t k = 0; k < n; ++k) eng.submit(frame);
  eng.drain();
}

TEST(DriftMonitor, SwapShardResetsTheMonitor) {
  auto knobs = std::make_shared<FakeKnobs>();
  StreamingConfig cfg = drifty_config();
  cfg.drift.confidence_drop = 0.10;
  StreamingEngine eng(fake_scored_backend(knobs), 1, cfg);

  feed(eng, 64);
  knobs->confidence.store(0.5f);
  feed(eng, 64);
  ASSERT_TRUE(eng.drift(0).drifted);
  const StreamingStats st = eng.stats();
  EXPECT_EQ(st.shards_drifted, 1u);
  EXPECT_EQ(st.scored_shots, 128u);

  auto fresh = std::make_shared<FakeKnobs>();
  eng.swap_shard(0, fake_scored_backend(fresh));
  const DriftReport r = eng.drift(0);
  EXPECT_FALSE(r.ready);  // Fresh baselines after the swap.
  EXPECT_FALSE(r.drifted);
  EXPECT_EQ(r.samples, 0u);
}

TEST(DriftMonitor, RejectsOutOfRangeShard) {
  auto knobs = std::make_shared<FakeKnobs>();
  StreamingEngine eng(fake_scored_backend(knobs), 2, drifty_config());
  EXPECT_THROW(eng.drift(2), Error);
}

TEST(DriftMonitor, ReferenceSubmitRejectsWrongLabelCount) {
  auto knobs = std::make_shared<FakeKnobs>();
  StreamingEngine eng(fake_scored_backend(knobs), 1, drifty_config());
  const IqTrace frame(256);
  const std::vector<int> wrong{0};
  EXPECT_THROW(eng.submit(frame, {.expected = wrong}), Error);
}

// ---- RecalibrationController end to end ---------------------------------

/// Trained two-qubit discriminator for real hot-swap payloads (the
/// controller swaps in BackendSnapshots of registered types).
const ProposedDiscriminator& trained_two_qubit() {
  static const ProposedDiscriminator d = [] {
    DatasetConfig cfg;
    cfg.chip = ChipProfile::test_two_qubit();
    cfg.shots_per_basis_state = 120;  // Enough for level-2 traces per qubit.
    cfg.seed = 20260806;
    const ReadoutDataset ds = generate_dataset(cfg);
    ProposedConfig pcfg;
    pcfg.trainer.epochs = 3;
    return ProposedDiscriminator::train(ds.shots, ds.training_labels,
                                        ds.train_idx, ds.chip, pcfg);
  }();
  return d;
}

RecalibrationConfig fast_controller_config() {
  RecalibrationConfig cfg;
  cfg.poll_interval = 2ms;
  cfg.consecutive_reports = 2;
  cfg.cooldown = 20ms;
  cfg.reservoir_capacity = 128;
  return cfg;
}

/// Polls `pred` until it holds or ~2 s elapse.
template <typename Pred>
bool eventually(Pred pred) {
  for (int k = 0; k < 400; ++k) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

TEST(RecalibrationController, DriftTriggersRetrainAndHotSwap) {
  auto knobs = std::make_shared<FakeKnobs>();
  StreamingConfig cfg = drifty_config();
  cfg.drift.confidence_drop = 0.10;
  StreamingEngine eng(fake_scored_backend(knobs), 1, cfg);

  std::atomic<int> invocations{0};
  RecalibrationController ctrl(
      eng,
      [&invocations](std::size_t shard, const DriftReport& report,
                     const ShotReservoir&) {
        EXPECT_EQ(shard, 0u);
        EXPECT_TRUE(report.drifted);
        ++invocations;
        return BackendSnapshot::wrap(trained_two_qubit());
      },
      fast_controller_config());

  feed(eng, 64);  // Healthy baseline; the controller polls but stays quiet.
  knobs->confidence.store(0.5f);
  feed(eng, 64);

  ASSERT_TRUE(eventually([&] { return ctrl.stats().swaps >= 1; }));
  const RecalibrationStats rs = ctrl.stats();
  EXPECT_GE(rs.polls, 1u);
  EXPECT_GE(rs.drift_flags, 1u);
  EXPECT_EQ(rs.retrains, rs.swaps + rs.failures);
  EXPECT_EQ(rs.failures, 0u);
  EXPECT_GE(invocations.load(), 1);

  // The swapped shard serves the new (real) discriminator and its monitor
  // restarted: feeding more traffic works and books balance.
  feed(eng, 32);
  EXPECT_EQ(eng.stats().completed, eng.stats().submitted);
}

TEST(RecalibrationController, FailedRetrainLeavesOldShardServing) {
  auto knobs = std::make_shared<FakeKnobs>();
  knobs->label.store(7);
  StreamingConfig cfg = drifty_config();
  cfg.drift.confidence_drop = 0.10;
  StreamingEngine eng(fake_scored_backend(knobs), 1, cfg);

  RecalibrationController ctrl(
      eng,
      [](std::size_t, const DriftReport&, const ShotReservoir&)
          -> BackendSnapshot { throw Error("retrain exploded"); },
      fast_controller_config());

  feed(eng, 64);
  knobs->confidence.store(0.5f);
  feed(eng, 64);

  ASSERT_TRUE(eventually([&] { return ctrl.stats().failures >= 1; }));
  EXPECT_EQ(ctrl.stats().swaps, 0u);

  // Old backend still owns the shard: it answers with its label 7.
  const IqTrace frame(256);
  const StreamingEngine::Ticket t = *eng.submit(frame);
  std::vector<int> out(2);
  ASSERT_EQ(eng.wait_result(t, out), ShotStatus::kDone);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], 7);
}

TEST(RecalibrationController, InvalidSnapshotCountsAsFailure) {
  auto knobs = std::make_shared<FakeKnobs>();
  StreamingConfig cfg = drifty_config();
  cfg.drift.confidence_drop = 0.10;
  StreamingEngine eng(fake_scored_backend(knobs), 1, cfg);

  RecalibrationController ctrl(
      eng,
      [](std::size_t, const DriftReport&, const ShotReservoir&) {
        return BackendSnapshot{};  // "Not enough data" refusal.
      },
      fast_controller_config());

  feed(eng, 64);
  knobs->confidence.store(0.5f);
  feed(eng, 64);

  ASSERT_TRUE(eventually([&] { return ctrl.stats().failures >= 1; }));
  EXPECT_EQ(ctrl.stats().swaps, 0u);
}

TEST(RecalibrationController, RetrainerSeesReservoirShots) {
  auto knobs = std::make_shared<FakeKnobs>();
  StreamingConfig cfg = drifty_config();
  cfg.drift.confidence_drop = 0.10;
  StreamingEngine eng(fake_scored_backend(knobs), 1, cfg);

  std::atomic<std::size_t> seen{0};
  RecalibrationController ctrl(
      eng,
      [&seen](std::size_t, const DriftReport&, const ShotReservoir& res) {
        std::vector<IqTrace> frames;
        std::vector<int> labels;
        seen.store(res.snapshot(frames, labels));
        return BackendSnapshot::wrap(trained_two_qubit());
      },
      fast_controller_config());

  const IqTrace frame(256);
  const std::vector<int> expected{0, 0};
  for (int k = 0; k < 64; ++k) {
    eng.submit(frame, {.expected = expected});
    ctrl.reservoir().push(frame, expected);
  }
  eng.drain();
  knobs->confidence.store(0.5f);
  for (int k = 0; k < 64; ++k) eng.submit(frame);
  eng.drain();

  ASSERT_TRUE(eventually([&] { return ctrl.stats().swaps >= 1; }));
  EXPECT_GE(seen.load(), 64u);
}

TEST(RecalibrationController, StopIsIdempotentAndJoinsCleanly) {
  auto knobs = std::make_shared<FakeKnobs>();
  StreamingEngine eng(fake_scored_backend(knobs), 1, drifty_config());
  RecalibrationController ctrl(
      eng,
      [](std::size_t, const DriftReport&, const ShotReservoir&) {
        return BackendSnapshot::wrap(trained_two_qubit());
      },
      fast_controller_config());
  ctrl.stop();
  ctrl.stop();  // Idempotent.
  const std::uint64_t polls = ctrl.stats().polls;
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(ctrl.stats().polls, polls);  // Really stopped.
}

// The TSan-focused hammer: reference submissions, reservoir pushes,
// drift()/stats() readers, and controller-driven swap_shard all run
// concurrently. Correctness bar: no ticket lost, books balance.
TEST(RecalibrationController, ConcurrentDriftSwapAndIngest) {
  auto knobs = std::make_shared<FakeKnobs>();
  StreamingConfig cfg = drifty_config();
  cfg.queue_capacity = 512;
  cfg.drift.confidence_drop = 0.10;
  StreamingEngine eng(fake_scored_backend(knobs), 2, cfg);

  RecalibrationConfig rcfg = fast_controller_config();
  rcfg.cooldown = 5ms;  // Swap as often as possible.
  RecalibrationController ctrl(
      eng,
      [](std::size_t, const DriftReport&, const ShotReservoir&) {
        return BackendSnapshot::wrap(trained_two_qubit());
      },
      rcfg);

  std::atomic<bool> run{true};
  std::atomic<std::uint64_t> accepted{0};

  std::vector<std::jthread> workers;
  for (int p = 0; p < 2; ++p)
    workers.emplace_back([&, p] {
      const IqTrace frame(256);
      const std::vector<int> expected{0, 0};
      std::uint64_t key = static_cast<std::uint64_t>(p) << 32;
      while (run.load()) {
        if (eng.submit(frame,
                       {.key = key++, .expected = expected, .timeout = 1000us})
                .has_value()) {
          ctrl.reservoir().push(frame, expected);
          accepted.fetch_add(1);
        }
      }
    });
  workers.emplace_back([&] {
    while (run.load()) {
      (void)eng.drift(0);
      (void)eng.drift(1);
      (void)eng.stats();
      (void)ctrl.stats();
      std::this_thread::sleep_for(500us);
    }
  });

  std::this_thread::sleep_for(50ms);
  knobs->confidence.store(0.5f);  // Provoke swaps mid-traffic.
  std::this_thread::sleep_for(150ms);
  run.store(false);
  workers.clear();
  eng.drain();
  ctrl.stop();

  const StreamingStats st = eng.stats();
  EXPECT_EQ(st.submitted, accepted.load());
  EXPECT_EQ(st.completed, st.submitted);
  EXPECT_GT(ctrl.stats().polls, 0u);
}

}  // namespace
}  // namespace mlqr
