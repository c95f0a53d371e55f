// Closed-loop drift recalibration: the control layer between the
// streaming engine's drift monitors and its hot-swap hook.
//
// The loop (README "Closed-loop recalibration" has the diagram):
//
//   StreamingEngine drift monitors --DriftReport--> RecalibrationController
//        ^                                               |
//        |  swap_shard(shard, snapshot.backend())        |  Retrainer
//        +-----------------------------------------------+  (background)
//
// The controller polls every shard's DriftReport on its own thread. A
// shard that reports drifted for `consecutive_reports` consecutive polls
// (hysteresis — one noisy EWMA excursion never triggers a retrain) is
// handed to the caller-supplied Retrainer together with the report and a
// bounded reservoir of recent labeled shots. The retrainer returns a
// BackendSnapshot (typically a retrain of the serving design on the
// reservoir); the controller optionally persists it (pipeline/snapshot.h
// format) and swap_shard's it in — ingest never pauses, no ticket is
// dropped, and the swapped shard's monitor restarts with fresh baselines.
// A cooldown then suppresses further retrains of that shard so the new
// baselines can settle. A retrainer that throws or returns an invalid
// snapshot counts as a failure and leaves the old backend serving — a
// broken retrain must never take down a working (if degraded) shard.
//
// Everything here is deterministic given its inputs: no Rng (enforced by
// tools/lint_invariants.py for src/pipeline/), no wall-clock reads
// (steady_clock only), and the ShotReservoir is a plain bounded FIFO —
// the newest `reservoir_capacity` shots, not a sampled subset — so a
// retrain's training set is a pure function of the submission order.
//
// Threading: push() producers, the controller thread, and stats() readers
// may all run concurrently. RecalibrationPolicy itself is a pure
// single-threaded state machine (driven under the controller's lock;
// tests drive it directly), so the hysteresis/cooldown logic stays
// trivially unit-testable.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "pipeline/snapshot.h"
#include "pipeline/streaming_engine.h"

namespace mlqr {

struct RecalibrationConfig {
  /// How often the controller polls every shard's DriftReport.
  std::chrono::microseconds poll_interval{50000};
  /// Hysteresis: consecutive drifted polls required before retraining.
  std::size_t consecutive_reports = 2;
  /// Post-swap quiet period for a shard: no retrain until the fresh
  /// monitor baselines have had this long to settle.
  std::chrono::microseconds cooldown{500000};
  /// Bounded FIFO of recent labeled shots handed to the retrainer.
  std::size_t reservoir_capacity = 4096;
  /// When non-empty, every accepted retrain snapshot is also persisted
  /// here (pipeline/snapshot.h format) before the swap.
  std::string snapshot_path;
};

/// Controller counters (one consistent snapshot via stats()).
struct RecalibrationStats {
  std::uint64_t polls = 0;        ///< Poll sweeps completed.
  std::uint64_t drift_flags = 0;  ///< Shard-polls that reported drifted.
  std::uint64_t retrains = 0;     ///< Retrainer invocations finished.
  std::uint64_t swaps = 0;        ///< Retrains that swapped a shard.
  std::uint64_t failures = 0;     ///< Retrains that threw / returned empty.
};

/// Thread-safe bounded FIFO of labeled shots: the newest `capacity` shots
/// in submission order (deterministic — this is not reservoir sampling).
/// Producers push the ground-truth-labeled traffic they already submit to
/// the engine; the retrainer snapshots the content oldest-first.
class ShotReservoir {
 public:
  ShotReservoir(std::size_t capacity, std::size_t n_qubits);

  /// Appends one labeled shot (size num_qubits()), evicting the oldest
  /// when full. Buffers reuse their capacity — steady state allocates
  /// nothing once every ring entry has seen a frame of this length.
  void push(const IqTrace& frame, std::span<const int> labels)
      MLQR_EXCLUDES(mutex_);

  std::size_t size() const MLQR_EXCLUDES(mutex_);
  std::size_t capacity() const { return capacity_; }
  std::size_t num_qubits() const { return n_qubits_; }

  /// Copies the current content oldest-first into `frames` /
  /// `labels_flat` (row-major, num_qubits() per shot) and returns the
  /// shot count. One lock acquisition: the copy is a consistent cut.
  std::size_t snapshot(std::vector<IqTrace>& frames,
                       std::vector<int>& labels_flat) const
      MLQR_EXCLUDES(mutex_);

 private:
  std::size_t capacity_;
  std::size_t n_qubits_;
  mutable Mutex mutex_;
  std::vector<IqTrace> frames_ MLQR_GUARDED_BY(mutex_);
  std::vector<int> labels_ MLQR_GUARDED_BY(mutex_);  ///< Flat, ring-parallel.
  std::size_t head_ MLQR_GUARDED_BY(mutex_) = 0;     ///< Oldest entry.
  std::size_t count_ MLQR_GUARDED_BY(mutex_) = 0;
};

/// The hysteresis + cooldown state machine, factored out of the
/// controller so it is a pure function of (observations, now): no locks,
/// no clocks of its own, no engine.
class RecalibrationPolicy {
 public:
  using Clock = std::chrono::steady_clock;
  enum class Action { kNone, kRetrain };

  RecalibrationPolicy(std::size_t n_shards, std::size_t consecutive_reports,
                      std::chrono::microseconds cooldown);

  /// Folds one poll result in. Returns kRetrain exactly when the drifted
  /// streak reaches the hysteresis threshold on a shard that is neither
  /// already retraining nor cooling down; the shard is then marked
  /// retraining until retrain_done().
  Action observe(std::size_t shard, bool drifted, Clock::time_point now);

  /// Ends a retrain (success or failure): clears the retraining mark,
  /// resets the streak, and starts the cooldown window.
  void retrain_done(std::size_t shard, Clock::time_point now);

  bool retraining(std::size_t shard) const;
  std::size_t streak(std::size_t shard) const;

 private:
  struct ShardPolicy {
    std::size_t streak = 0;
    bool retraining = false;
    Clock::time_point cooldown_until{};
  };
  std::size_t consecutive_reports_;
  std::chrono::microseconds cooldown_;
  std::vector<ShardPolicy> shards_;
};

/// The background control loop: polls drift reports, applies the policy,
/// runs the retrainer, persists and hot-swaps the result. One controller
/// thread per instance; the engine must outlive the controller.
class RecalibrationController {
 public:
  /// Produces a fresh calibration for `shard` from the drift report and
  /// the reservoir of recent labeled shots. Runs on the controller
  /// thread, concurrently with ingest. Throwing, or returning an invalid
  /// (default) snapshot, aborts that retrain as a counted failure — the
  /// old backend keeps serving.
  using Retrainer = std::function<BackendSnapshot(
      std::size_t shard, const DriftReport& report, const ShotReservoir&)>;

  RecalibrationController(StreamingEngine& engine, Retrainer retrainer,
                          RecalibrationConfig cfg = {});

  /// Stops the control loop (waiting out any in-flight retrain).
  ~RecalibrationController();

  RecalibrationController(const RecalibrationController&) = delete;
  RecalibrationController& operator=(const RecalibrationController&) = delete;

  ShotReservoir& reservoir() { return reservoir_; }
  const ShotReservoir& reservoir() const { return reservoir_; }
  const RecalibrationConfig& config() const { return cfg_; }

  RecalibrationStats stats() const MLQR_EXCLUDES(mutex_);

  /// Idempotent early stop: wakes the poller, waits for any in-flight
  /// retrain to finish, and joins the thread.
  void stop() MLQR_EXCLUDES(mutex_);

 private:
  void control_loop();

  StreamingEngine& engine_;
  Retrainer retrainer_;
  RecalibrationConfig cfg_;
  ShotReservoir reservoir_;

  mutable Mutex mutex_;
  CondVar wake_cv_;  ///< Poller parked between sweeps; stop() wakes it.
  bool stop_ MLQR_GUARDED_BY(mutex_) = false;
  RecalibrationPolicy policy_ MLQR_GUARDED_BY(mutex_);
  RecalibrationStats stats_ MLQR_GUARDED_BY(mutex_);

  std::jthread worker_;  ///< Last member: joins before state dies.
};

}  // namespace mlqr
