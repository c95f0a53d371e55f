// Asynchronous, sharded, fault-tolerant streaming front door for the
// readout engine.
//
// ReadoutEngine::process_batch is strictly synchronous: the caller
// assembles a batch, blocks while it classifies, and owns the fan-out
// cadence. Real deployments look different — QEC cycles and multiplexed
// feedlines deliver a steady trickle of single shots from several
// producers, throughput comes from overlapping ingest with
// classification, and the serving chain drifts and faults continuously.
// StreamingEngine provides that shape:
//
//   * It owns N EngineBackend shards (e.g. one discriminator per
//     feedline/chip). Shots route round-robin by default or by an explicit
//     channel key (key % shards), so a multi-feedline fan-in keeps each
//     feedline's calibration on its own shard.
//   * Producers call submit(frame, SubmitOptions) -> optional<Ticket>.
//     Frames land in a bounded ring (StreamingConfig::queue_capacity);
//     when the ring is full, submit blocks — backpressure, not unbounded
//     memory — or, given a timeout, rejects (nullopt) once it expires, so
//     admission control can live in the caller when blocking is not an
//     option (a QEC control loop cannot stall its cycle).
//   * A resident dispatcher thread micro-batches ingest: it launches a
//     classification batch once batch_max frames are pending or
//     deadline_us has elapsed since the oldest pending frame arrived,
//     whichever comes first. It groups each claimed batch by serving
//     target (each shard, then the fallback; ticket order kept within a
//     target) and classifies each group with one EngineCore call on that
//     target's backend, so interleaved keyed feedlines still reach a
//     batch-capable backend as groups long enough for its batched path.
//     process_batch uses the same EngineCore machinery (persistent thread
//     pool + per-worker-slot InferenceScratch), so labels are
//     bit-identical to the synchronous path for the same frames,
//     regardless of shard count, thread count, or micro-batch boundaries.
//   * Load shedding: with shot_deadline_us set, the dispatcher never
//     wastes classifier time on a frame that is already too stale to
//     matter (a QEC label after the cycle deadline is as useless as a
//     wrong one). Stale tickets complete immediately with
//     ShotStatus::kShed — reported, never silently dropped — and the
//     backlog drains at shed speed instead of classify speed.
//   * wait_result(ticket) blocks until that shot resolves, reports its
//     ShotStatus (done/failed/shed) and releases its ring slot;
//     wait_for(ticket, timeout) additionally bounds the block (kTimedOut
//     leaves the ticket consumable later). drain() blocks until everything
//     submitted so far has resolved. Tickets complete in arbitrary shard
//     order but every ticket is individually awaitable (out-of-order
//     completion is pinned by tests/test_streaming.cpp). Every submitted
//     ticket resolves to exactly one of done / failed / shed — none are
//     ever lost.
//   * A backend that throws does not kill the engine: per-shot failure
//     capture marks exactly the throwing shots kFailed, drain() rethrows
//     the failure while failed tickets remain unconsumed, and the
//     dispatcher keeps serving.
//   * Shard health (pipeline/shard_breaker.h): with quarantine_after set,
//     a shard that fails that many consecutive shots is quarantined — its
//     traffic reroutes within one micro-batch — and half-open probes
//     re-admit it once it serves correctly again.
//   * swap_shard(shard, backend) hot-swaps one shard's calibration between
//     micro-batches — the drift-recalibration path (typically fed by a
//     pipeline/snapshot.h BackendSnapshot) — without dropping or
//     rerouting tickets. It also resets the shard's breaker and drift
//     monitor: fresh calibration, fresh health, fresh baselines.
//   * Drift monitoring (StreamingConfig::drift, pipeline/drift_monitor.h):
//     each shard tracks sampled softmax confidence, live fidelity of
//     reference shots (SubmitOptions::expected) and the served label mix.
//     drift(shard) snapshots them as a DriftReport; a recalibration
//     controller (pipeline/recalibration.h) closes the loop by retraining
//     and swap_shard-ing flagged shards. Monitoring never alters routing,
//     labels, or ticket outcomes.
//
// The breaker and the drift monitors are pure single-threaded values
// driven under the engine mutex with `now` passed in; the engine itself
// keeps only the ring, dispatch, slot custody and the swap gate.
//
// Wait policy: spin, then park. At QEC rates nearly every micro-batch is a
// single shot, so each shot crosses two thread hand-offs — submit wakes
// the dispatcher, batch completion wakes the consumer — and a wake-up from
// a parked condition variable costs several microseconds each. So the
// dispatcher's work wait and every done wait (wait_result, wait_for,
// drain, swap_shard) first poll for up to kSpinWindow, pausing and
// yielding the CPU between polls, and park only if nothing happened. A
// timed wait never polls past its own deadline, and a wait_for with a
// timeout <= 0 does not poll at all. The cost is CPU: an idle dispatcher,
// and every waiter, burns up to one spin window of CPU per wait before it
// parks. The yield keeps that safe on an oversubscribed host — a pure
// spinner there starves the very thread it waits for — except in a poll's
// last 20 us, which only pause: there a yield can cost a whole scheduler
// slice, far past a short timed wait's deadline.
//
// Allocations: once every ring slot has held a frame of the served length
// (slots reuse their frame/label capacity), a micro-batch that classifies
// on one worker allocates nothing — scratch lives per worker slot, the
// dispatcher reuses its per-batch ticket/grouping/error buffers, and the
// classify callbacks are non-owning references (tests/test_allocations.cpp
// pins this, for one shard and for two shards with interleaved keys). Each
// group of a micro-batch fanned out over the pool allocates the one Job
// ThreadPool::run shares with its workers.
//
// Locking contract (compile-time checked on Clang, see
// common/annotations.h): every bookkeeping member — the ring vector, the
// shard table, breaker, drift monitors, tickets, counters, and the
// dispatcher/swap gate flags — is MLQR_GUARDED_BY(mutex_), and the
// dispatcher-side helpers carry MLQR_REQUIRES(mutex_). The one thing the
// analysis cannot express is the slot custody hand-off: a producer fills a
// kReserved slot's frame and the dispatcher reads kInFlight slots' frames
// / writes their labels and per-batch error slots outside the lock, via
// pointers snapshotted under it. That protocol is documented on Slot below
// and stays covered by TSan. The spin-then-park epochs are atomics outside
// the capability model: they only say "something changed, re-check under
// the lock" and never carry data (see EpochCondVar).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "pipeline/drift_monitor.h"
#include "pipeline/readout_engine.h"
#include "pipeline/shard_breaker.h"

namespace mlqr {

struct StreamingConfig {
  /// Ring capacity: bounds in-flight shots (submitted, not yet waited).
  /// submit() blocks while the ring is full, waits free slots.
  std::size_t queue_capacity = 1024;
  /// Micro-batch cap: the dispatcher launches at most this many shots per
  /// classification batch.
  std::size_t batch_max = 64;
  /// Micro-batch deadline: a pending shot never waits longer than this for
  /// the batch to fill. 0 dispatches whatever is queued immediately
  /// (lowest latency, smallest batches).
  std::size_t deadline_us = 200;
  /// Per-shot service deadline, measured from submit(). When > 0, the
  /// dispatcher sheds any frame older than this at claim time: the ticket
  /// completes immediately with ShotStatus::kShed instead of occupying
  /// classifier time it can no longer repay. Derive it from the real-time
  /// budget the labels feed — for QEC decoding that is the cycle-time
  /// analysis in bench/sec7b_qec_cycle_time (a label past the cycle
  /// deadline is as useless as a wrong one). 0 disables shedding; shots
  /// then wait as long as backpressure allows.
  std::size_t shot_deadline_us = 0;
  /// Circuit breaker: a shard that fails this many consecutive shots is
  /// quarantined and its traffic reroutes (next healthy shard, else
  /// `fallback`, else — last resort — the quarantined shard itself, so no
  /// ticket is ever stranded). 0 disables the breaker entirely: every
  /// shard always serves its own traffic and failures stay per-shot.
  std::size_t quarantine_after = 0;
  /// Half-open probe back-off: a quarantined shard receives no traffic
  /// until this much time has passed since it was quarantined (or since
  /// its last failed probe); then one live shot at a time routes back to
  /// it as a probe. A probe success re-admits the shard.
  std::size_t probe_backoff_us = 10000;
  /// Optional last-resort backend serving traffic whose shard is
  /// quarantined when no healthy shard remains (e.g. a conservative
  /// boxcar/LDA discriminator that never needs recalibration). Must agree
  /// on the qubit count when valid(); ignored while invalid.
  EngineBackend fallback;
  /// Per-shard drift monitors (off by default; see DriftConfig).
  DriftConfig drift;
  /// Worker budget / scratch policy for the classification fan-out, shared
  /// with ReadoutEngine semantics (threads == 0 means MLQR_THREADS).
  EngineConfig engine;
};

/// What one submit() call asks for. The defaults — no key, no expected
/// labels, no timeout — mean round-robin routing, a regular shot, and
/// blocking while the ring is full.
struct SubmitOptions {
  /// Keyed routing: the shot classifies on shard `*key % num_shards()`.
  /// nullopt routes round-robin by ticket.
  std::optional<std::uint64_t> key{};
  /// Non-empty marks a reference shot: its known ground-truth labels
  /// (size num_qubits()) feed the drift fidelity monitor. Classification
  /// and ticket semantics are unchanged. Interleave these sparsely (e.g.
  /// calibration shots with known prepared states) among regular traffic.
  std::span<const int> expected{};
  /// Admission bound while the ring is full: nullopt blocks; <= 0 tries
  /// once; otherwise waits up to this long, then rejects (nullopt ticket,
  /// no side effects). A timeout past the clock's range blocks.
  std::optional<std::chrono::microseconds> timeout{};
};

/// Terminal status of one ticket, as reported by wait_result()/wait_for().
enum class ShotStatus : std::uint8_t {
  kDone,      ///< Labels valid and copied out.
  kFailed,    ///< The backend threw classifying this shot; labels invalid.
  kShed,      ///< Admission control dropped the shot before classification.
  kTimedOut,  ///< wait_for() deadline passed; the ticket is still pending
              ///< and remains consumable by a later wait.
};

/// One consistent snapshot of every engine counter, taken under a single
/// lock acquisition.
struct StreamingStats {
  std::uint64_t submitted = 0;  ///< Tickets issued.
  std::uint64_t completed = 0;  ///< Resolved tickets: done + failed + shed.
  std::uint64_t failed = 0;     ///< Tickets whose backend threw.
  std::uint64_t shed = 0;       ///< Tickets dropped by admission control.
  std::uint64_t batches = 0;    ///< Micro-batches classified (non-empty).
  std::uint64_t swaps = 0;      ///< swap_shard calls completed.
  std::uint64_t rerouted = 0;   ///< Shots served off their target shard.
  std::uint64_t quarantines = 0;  ///< Healthy -> quarantined transitions.
  std::uint64_t probes = 0;       ///< Half-open probe shots dispatched.
  std::uint64_t recoveries = 0;   ///< Quarantined -> healthy via a probe.
  std::uint64_t reference_shots = 0;  ///< Reference shots resolved OK.
  std::uint64_t scored_shots = 0;  ///< Shots with a sampled confidence.
  std::size_t shards_quarantined = 0;  ///< Currently quarantined shards.
  std::size_t shards_drifted = 0;  ///< Shards currently flagging drift.
};

/// Asynchronous sharded engine: submit/wait/drain over a bounded MPSC
/// ring, micro-batched dispatch through EngineCore, deadline-aware
/// shedding and per-shard circuit breakers. submit is safe from multiple
/// producer threads; waits, drain and stats are safe from any thread. One
/// dispatcher thread per engine.
class StreamingEngine {
 public:
  /// Monotonic per-engine shot id; ticket t is the t-th submitted frame.
  using Ticket = std::uint64_t;

  /// How long the dispatcher's work wait and each done wait poll before
  /// they park (the wait policy above). A constant, not a knob. Swept on
  /// perfbench qec_stream, 4-vCPU x86 host: at its 20k shots/s (a shot
  /// every 50 us on average) 50 us parks too often (p50 ~15 us, against
  /// ~10 us here), while 1000 us takes under 1 us more off p50 for five
  /// times the CPU an idle engine burns per wait.
  static constexpr std::chrono::microseconds kSpinWindow{200};

  /// Heterogeneous shards: one backend per feedline/chip. There must be at
  /// least one; all must be valid and report the same qubit count (as
  /// must cfg.fallback when set).
  explicit StreamingEngine(std::vector<EngineBackend> shards,
                           StreamingConfig cfg = {});

  /// Homogeneous convenience: n_shards (>= 1) copies of one backend.
  StreamingEngine(const EngineBackend& backend, std::size_t n_shards,
                  StreamingConfig cfg = {});

  /// Drains outstanding work and stops the dispatcher. No other thread may
  /// still be calling submit/wait when destruction starts. Unconsumed
  /// tickets — including failed and shed ones — are released; nothing
  /// leaks and nothing blocks.
  ~StreamingEngine();

  StreamingEngine(const StreamingEngine&) = delete;
  StreamingEngine& operator=(const StreamingEngine&) = delete;

  std::size_t num_shards() const { return shards_count_; }
  std::size_t num_qubits() const { return n_qubits_; }

  /// Enqueues a copy of `frame` (slot buffers reuse their capacity) and
  /// returns its ticket, or nullopt when opts.timeout expired with the
  /// ring still full. Without a timeout the result is always engaged.
  /// Throws Error when opts.expected is non-empty but not num_qubits()
  /// long.
  std::optional<Ticket> submit(const IqTrace& frame, SubmitOptions opts = {})
      MLQR_EXCLUDES(mutex_);

  /// Blocking keyed submit. It remains so the perfbench/ harness, which
  /// calls it, keeps compiling; other callers pass SubmitOptions{.key}.
  Ticket submit(const IqTrace& frame, std::uint64_t key) MLQR_EXCLUDES(mutex_) {
    return *submit(frame, SubmitOptions{.key = key});
  }

  /// Blocks until ticket `t` resolves and consumes it: kDone copies its
  /// labels into `out` (size num_qubits()), kFailed (the backend threw)
  /// and kShed leave `out` untouched. Releases the ring slot either way;
  /// never returns kTimedOut. Each ticket can be waited exactly once.
  /// Tickets are issued sequentially from 0, so a pipelined consumer may
  /// wait a ticket its producer has not submitted yet — the call blocks
  /// until it is. Throws Error for contract violations: a wrong span size,
  /// a ticket already waited, or a ticket at least ring-capacity ahead of
  /// the next unissued one (it cannot resolve before this caller itself
  /// would deadlock waiting — the classic never-submitted-ticket
  /// foot-gun; wait_for() is the escape for genuinely speculative waits).
  ShotStatus wait_result(Ticket t, std::span<int> out) MLQR_EXCLUDES(mutex_);

  /// Timed wait_result: additionally returns kTimedOut once `timeout` has
  /// elapsed without the ticket resolving — the ticket is NOT consumed and
  /// stays waitable (including tickets never submitted yet, which is why
  /// this variant skips the unsatisfiable-ticket throw). A timeout past
  /// the clock's range waits without a deadline.
  ShotStatus wait_for(Ticket t, std::span<int> out,
                      std::chrono::microseconds timeout) MLQR_EXCLUDES(mutex_);

  /// Blocks until every ticket issued so far has resolved (results stay
  /// retrievable by a wait afterwards). While any completed-but-unwaited
  /// ticket failed, rethrows the backend exception of the first failure
  /// since the failed count was last zero — without consuming tickets;
  /// once every failed ticket has been waited, drain() returns normally
  /// again. This is where failure details stay reachable: the waits only
  /// report kFailed. Shed tickets never make drain() throw — they are a
  /// reported outcome, not an engine failure.
  void drain() MLQR_EXCLUDES(mutex_);

  /// Atomically replaces one shard's backend between micro-batches: blocks
  /// until the dispatcher is not classifying (the dispatcher yields the
  /// next batch to a pending swap, so this is bounded by one micro-batch
  /// even under saturation), then installs the new backend under the
  /// engine lock. Queued and future tickets routed to `shard` classify on
  /// the new backend; no ticket is dropped or rerouted. The shard's
  /// breaker and drift monitor reset — fresh calibration means fresh
  /// health, so a recalibration loop re-admits a drifted shard by swapping
  /// it. The backend must be valid and agree on the qubit count (throws
  /// Error otherwise). Pass an owning backend (e.g.
  /// BackendSnapshot::backend()) or keep the wrapped discriminator alive
  /// for the engine's lifetime. Safe to call concurrently with
  /// submit/wait/drain from any thread, but not while the engine is being
  /// destroyed.
  void swap_shard(std::size_t shard, EngineBackend backend)
      MLQR_EXCLUDES(mutex_);

  /// Current circuit-breaker state of one shard (kHealthy always when the
  /// breaker is disabled).
  ShardHealth shard_health(std::size_t shard) const MLQR_EXCLUDES(mutex_);

  /// Snapshot of one shard's drift monitor (never ready while
  /// cfg.drift.enabled is false).
  DriftReport drift(std::size_t shard) const MLQR_EXCLUDES(mutex_);

  /// Every counter in one consistent snapshot (single lock acquisition).
  StreamingStats stats() const MLQR_EXCLUDES(mutex_);

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// A CondVar whose waits poll before they park (the wait policy above).
  /// notify_all() bumps a change epoch, with the engine mutex held, and
  /// then signals. A wait reads the epoch under the mutex, releases it,
  /// polls the epoch for up to kSpinWindow (never past its own deadline),
  /// re-locks, and parks only if the epoch has not moved. No notify is
  /// lost between the poll and the park: it needs the mutex, which the
  /// waiter holds from its final epoch check until the CondVar parks it.
  /// Like CondVar's, the waits may return without a notify; callers loop
  /// on their predicate.
  class EpochCondVar {
   public:
    void notify_all(Mutex& mu) MLQR_REQUIRES(mu);
    void wait(Mutex& mu) MLQR_REQUIRES(mu);
    std::cv_status wait_until(Mutex& mu, TimePoint deadline)
        MLQR_REQUIRES(mu);

   private:
    /// Releases mu, polls until the epoch moves or `until` passes, then
    /// re-locks; true when the epoch moved since the call began.
    bool spin(Mutex& mu, TimePoint until) MLQR_REQUIRES(mu);

    /// The final stretch of a poll that pauses without yielding.
    static constexpr std::chrono::microseconds kYieldMargin{20};

    std::atomic<std::uint64_t> epoch_{0};
    CondVar cv_;
  };

  enum class SlotState : std::uint8_t {
    kFree,      ///< Reusable; ticket field holds the last consumed ticket.
    kReserved,  ///< A producer is copying its frame in (outside the lock).
    kQueued,    ///< Ready for the dispatcher.
    kInFlight,  ///< Claimed by the dispatcher; classification running.
    kDone,      ///< Outcome valid; waiting for a wait to consume.
  };

  /// Slot.ticket value before any shot has occupied the slot (a real
  /// ticket can never reach it).
  static constexpr Ticket kNoTicket = ~Ticket{0};

  /// One ring entry. The state/ticket/shard/route/outcome fields
  /// transition only under the engine mutex; frame, expected, labels and
  /// arrival follow the custody protocol instead (Clang TSA cannot express
  /// ownership hand-off, so these accesses are deliberately outside the
  /// capability model):
  ///   * kReserved: the submitting producer exclusively fills frame,
  ///     expected and arrival outside the lock; its kQueued transition
  ///     (under the lock) publishes the writes to the dispatcher.
  ///   * kInFlight: the dispatcher exclusively reads frame and writes
  ///     labels outside the lock; its kDone transition publishes them to
  ///     the waiter.
  ///   * kDone -> kFree: a wait copies labels out under the lock.
  struct Slot {
    IqTrace frame;
    std::vector<int> labels;
    /// Reference-shot ground truth (SubmitOptions::expected); empty for
    /// regular shots.
    std::vector<int> expected;
    Ticket ticket = kNoTicket;
    /// Target shard chosen at submit time (round-robin or channel key).
    std::size_t shard = 0;
    /// Where the shot actually classified: claim-time routing may divert
    /// quarantined traffic (ShardBreaker::kFallback for the fallback).
    ShardBreaker::Route route;
    SlotState state = SlotState::kFree;
    ShotStatus outcome = ShotStatus::kDone;  ///< Valid once kDone.
    TimePoint arrival{};
  };

  /// The one body behind wait_result (timeout nullopt: block, and throw
  /// for provably unsatisfiable tickets) and wait_for.
  ShotStatus wait_impl(Ticket t, std::span<int> out,
                       std::optional<std::chrono::microseconds> timeout)
      MLQR_EXCLUDES(mutex_);
  void dispatch_loop();
  /// Dispatchable micro-batch size: the contiguous queued run from head_
  /// capped at batch_max. O(1) — queued_run_ is maintained incrementally.
  std::size_t ready_run() const MLQR_REQUIRES(mutex_);
  /// Extends queued_run_ past newly queued slots (amortized O(1)/shot).
  void extend_queued_run() MLQR_REQUIRES(mutex_);
  /// Reorders batch_tickets_ so the shots of each serving target (each
  /// shard, then the fallback) are contiguous, keeping ticket order within
  /// a target, and leaves target k's group end in group_start_[k]. A
  /// stable counting pass: O(batch), no allocation.
  void group_by_route() MLQR_REQUIRES(mutex_);
  /// Throws Error unless `shard` indexes a shard; `what` names the call.
  void check_shard(std::size_t shard, const char* what) const;
  Slot& slot_of(Ticket t) MLQR_REQUIRES(mutex_) {
    return ring_[t % ring_.size()];
  }

  StreamingConfig cfg_;  ///< Immutable after construction (incl. fallback).
  std::size_t n_qubits_ = 0;      ///< Immutable after construction.
  std::size_t shards_count_ = 0;  ///< Immutable after construction.
  EngineCore core_;  ///< Dispatcher-thread only (scratch pool inside).

  mutable Mutex mutex_;
  CondVar space_cv_;      ///< Producers waiting for a free slot.
  EpochCondVar work_cv_;  ///< Dispatcher waiting for shots/stop/swap gate.
  EpochCondVar done_cv_;  ///< Waits/drain()/swappers waiting on the dispatcher.
  /// Never resized after construction; elements follow Slot's custody
  /// protocol once handed off (pointers snapshotted under the lock).
  std::vector<Slot> ring_ MLQR_GUARDED_BY(mutex_);
  /// Stable while dispatching_ is true: swap_shard waits for the gap
  /// between micro-batches before mutating an element.
  std::vector<EngineBackend> shards_ MLQR_GUARDED_BY(mutex_);
  ShardBreaker breaker_ MLQR_GUARDED_BY(mutex_);
  /// Parallel to shards_ (swap_shard resets the swapped shard's entry).
  std::vector<DriftMonitor> drift_ MLQR_GUARDED_BY(mutex_);
  /// Tickets of the micro-batch being classified (shed slots excluded),
  /// grouped by serving target; dispatcher-only, reused across batches,
  /// read outside the lock via a pointer snapshotted under it (same
  /// custody as ring_).
  std::vector<Ticket> batch_tickets_ MLQR_GUARDED_BY(mutex_);
  /// group_by_route's scatter target (swapped with batch_tickets_) and its
  /// per-target bucket bounds (shards + 2 entries; once it returns, entry k
  /// is the end of target k's group); both sized at construction.
  std::vector<Ticket> grouped_tickets_ MLQR_GUARDED_BY(mutex_);
  std::vector<std::size_t> group_start_ MLQR_GUARDED_BY(mutex_);
  /// Per-shot failure capture for the batch in flight, index-parallel to
  /// batch_tickets_. Workers write disjoint slots outside the lock (same
  /// custody as Slot::labels); the dispatcher reads them back under it.
  std::vector<std::exception_ptr> batch_errors_ MLQR_GUARDED_BY(mutex_);
  Ticket next_ticket_ MLQR_GUARDED_BY(mutex_) = 0;  ///< Next ticket to issue.
  /// Oldest ticket not yet claimed for dispatch.
  Ticket head_ MLQR_GUARDED_BY(mutex_) = 0;
  /// Tickets below this skip the deadline wait.
  Ticket flush_ MLQR_GUARDED_BY(mutex_) = 0;
  /// Contiguous kQueued slots from head_.
  std::size_t queued_run_ MLQR_GUARDED_BY(mutex_) = 0;
  std::uint64_t completed_ MLQR_GUARDED_BY(mutex_) = 0;
  std::uint64_t batches_ MLQR_GUARDED_BY(mutex_) = 0;
  std::uint64_t swaps_ MLQR_GUARDED_BY(mutex_) = 0;
  std::uint64_t failed_total_ MLQR_GUARDED_BY(mutex_) = 0;
  std::uint64_t shed_ MLQR_GUARDED_BY(mutex_) = 0;
  std::uint64_t reference_shots_ MLQR_GUARDED_BY(mutex_) = 0;
  std::uint64_t scored_shots_ MLQR_GUARDED_BY(mutex_) = 0;
  /// Dispatcher-thread only (like core_), touched outside the lock while
  /// the batch's slots are in dispatcher custody: confidence-scoring
  /// scratch + label sink, the per-batch confidence samples
  /// (index-parallel to batch_tickets_, nullopt = not sampled), and the
  /// per-shard sampling phase counters (deliberately not reset by
  /// swap_shard — they only control sampling cadence).
  InferenceScratch drift_scratch_;
  std::vector<int> drift_labels_;
  std::vector<std::optional<float>> batch_conf_;
  std::vector<std::uint64_t> score_counter_;
  /// kFailed tickets not yet consumed by a wait, and the first such shot's
  /// exception since the count was last zero (what drain() rethrows while
  /// any remain).
  std::size_t failed_unconsumed_ MLQR_GUARDED_BY(mutex_) = 0;
  std::exception_ptr first_error_ MLQR_GUARDED_BY(mutex_);
  /// True while the dispatcher runs core_.classify outside the lock (it
  /// reads shards_ there, so swap_shard must not mutate them meanwhile).
  bool dispatching_ MLQR_GUARDED_BY(mutex_) = false;
  /// Swappers waiting for a batch gap; the dispatcher yields to them
  /// before claiming the next micro-batch so swaps cannot starve under
  /// sustained load.
  std::size_t swaps_pending_ MLQR_GUARDED_BY(mutex_) = 0;
  bool stop_ MLQR_GUARDED_BY(mutex_) = false;

  std::jthread dispatcher_;  ///< Last member: joins before state dies.
};

}  // namespace mlqr
