#include "pipeline/streaming_engine.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"

namespace mlqr {

namespace {
using Clock = std::chrono::steady_clock;

std::vector<EngineBackend> checked_shards(std::vector<EngineBackend> shards) {
  MLQR_CHECK_MSG(!shards.empty(), "streaming engine needs >= 1 shard");
  for (const EngineBackend& s : shards) {
    MLQR_CHECK_MSG(s.valid(), "streaming engine got an invalid shard");
    MLQR_CHECK_MSG(s.num_qubits() > 0, "shard reports zero qubits");
    MLQR_CHECK_MSG(s.num_qubits() == shards.front().num_qubits(),
                   "shards disagree on qubit count ("
                       << s.num_qubits() << " vs "
                       << shards.front().num_qubits() << ')');
  }
  return shards;
}

/// The one timeout -> deadline conversion behind timed submits and waits.
/// nullopt means "no deadline, block": no timeout was given, or it reaches
/// past the clock's range (now() + microseconds::max() would overflow the
/// nanosecond representation). timeout <= 0 yields an already-expired
/// deadline, i.e. try once.
std::optional<Clock::time_point> deadline_after(
    std::optional<std::chrono::microseconds> timeout) {
  if (!timeout) return std::nullopt;
  if (timeout->count() <= 0) return Clock::time_point{};
  const Clock::time_point now = Clock::now();
  if (*timeout >= std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::time_point::max() - now))
    return std::nullopt;
  return now + *timeout;
}

/// Spin-loop hint: lets the sibling hyperthread run and saves power while
/// a waiter polls.
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}
}  // namespace

void StreamingEngine::EpochCondVar::notify_all(Mutex& /*mu*/) {
  // Under mu: a waiter between its last epoch check and its park holds mu,
  // so this bump lands either before that check or after the park.
  epoch_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_all();
}

bool StreamingEngine::EpochCondVar::spin(Mutex& mu, TimePoint until) {
  const std::uint64_t seen = epoch_.load(std::memory_order_relaxed);
  mu.unlock();
  while (epoch_.load(std::memory_order_relaxed) == seen) {
    const TimePoint now = Clock::now();
    if (now >= until) break;
    cpu_pause();
    // Yield too: with more runnable threads than CPUs, a spinner that
    // only pauses holds the CPU the notifying thread needs. But on such a
    // host a yield can cost a whole scheduler slice (milliseconds), so the
    // last kYieldMargin of the poll only pauses: a short timed wait then
    // ends at its deadline instead of a slice past it.
    if (until - now > kYieldMargin) std::this_thread::yield();
  }
  mu.lock();
  return epoch_.load(std::memory_order_relaxed) != seen;
}

void StreamingEngine::EpochCondVar::wait(Mutex& mu) {
  if (!spin(mu, Clock::now() + kSpinWindow)) cv_.wait(mu);
}

std::cv_status StreamingEngine::EpochCondVar::wait_until(Mutex& mu,
                                                         TimePoint deadline) {
  const TimePoint now = Clock::now();
  if (now >= deadline) return std::cv_status::timeout;
  if (spin(mu, std::min(now + kSpinWindow, deadline)))
    return std::cv_status::no_timeout;
  // A poll that ran to the deadline does not park: the futex call alone
  // is a point where a busy host can take the CPU away.
  if (Clock::now() >= deadline) return std::cv_status::timeout;
  return cv_.wait_until(mu, deadline);
}

StreamingEngine::StreamingEngine(std::vector<EngineBackend> shards,
                                 StreamingConfig cfg)
    : cfg_(cfg),
      core_(cfg.engine),
      shards_(checked_shards(std::move(shards))),
      breaker_(shards_.size(), cfg.quarantine_after,
               std::chrono::microseconds(cfg.probe_backoff_us)),
      drift_(shards_.size(), DriftMonitor(cfg.drift)) {
  n_qubits_ = shards_.front().num_qubits();
  shards_count_ = shards_.size();
  if (cfg_.fallback.valid()) {
    MLQR_CHECK_MSG(cfg_.fallback.num_qubits() == n_qubits_,
                   "fallback backend reports " << cfg_.fallback.num_qubits()
                       << " qubits, shards serve " << n_qubits_);
  }
  cfg_.queue_capacity = std::max<std::size_t>(cfg_.queue_capacity, 1);
  cfg_.batch_max =
      std::clamp<std::size_t>(cfg_.batch_max, 1, cfg_.queue_capacity);
  cfg_.drift.confidence_sample =
      std::max<std::size_t>(cfg_.drift.confidence_sample, 1);
  ring_.resize(cfg_.queue_capacity);
  for (Slot& s : ring_) s.labels.assign(n_qubits_, 0);
  score_counter_.assign(shards_.size(), 0);
  drift_labels_.assign(n_qubits_, 0);
  batch_tickets_.reserve(cfg_.batch_max);
  grouped_tickets_.reserve(cfg_.batch_max);
  group_start_.assign(shards_.size() + 2, 0);
  batch_errors_.reserve(cfg_.batch_max);
  batch_conf_.reserve(cfg_.batch_max);
  dispatcher_ = std::jthread([this] { dispatch_loop(); });
}

StreamingEngine::StreamingEngine(const EngineBackend& backend,
                                 std::size_t n_shards, StreamingConfig cfg)
    : StreamingEngine(std::vector<EngineBackend>(n_shards, backend), cfg) {}

StreamingEngine::~StreamingEngine() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
    work_cv_.notify_all(mutex_);
  }
  // dispatcher_ (last member) joins on destruction after draining the ring.
}

std::optional<StreamingEngine::Ticket> StreamingEngine::submit(
    const IqTrace& frame, SubmitOptions opts) {
  frame.check_consistent();
  MLQR_CHECK_MSG(opts.expected.empty() || opts.expected.size() == n_qubits_,
                 "reference shot has " << opts.expected.size()
                     << " expected labels, engine serves " << n_qubits_
                     << " qubits");
  const std::optional<TimePoint> deadline = deadline_after(opts.timeout);
  MutexLock lock(mutex_);
  // Backpressure: the next ticket's slot must have been consumed by a wait.
  while (slot_of(next_ticket_).state != SlotState::kFree) {
    if (!deadline) {
      space_cv_.wait(mutex_);
    } else if (space_cv_.wait_until(mutex_, *deadline) ==
                   std::cv_status::timeout &&
               slot_of(next_ticket_).state != SlotState::kFree) {
      return std::nullopt;  // Admission rejected: ring still full.
    }
  }
  const Ticket t = next_ticket_++;
  Slot& slot = slot_of(t);
  slot.state = SlotState::kReserved;
  slot.ticket = t;
  slot.shard = static_cast<std::size_t>(opts.key.value_or(t) % shards_.size());
  lock.unlock();
  // Copy outside the lock: concurrent producers fill distinct slots in
  // parallel (the kReserved custody hand-off — see Slot). assign() reuses
  // the slot's capacity — zero allocations once the ring has seen a frame
  // of this length.
  slot.frame.i.assign(frame.i.begin(), frame.i.end());
  slot.frame.q.assign(frame.q.begin(), frame.q.end());
  slot.expected.assign(opts.expected.begin(), opts.expected.end());
  slot.arrival = Clock::now();
  lock.lock();
  slot.state = SlotState::kQueued;
  extend_queued_run();
  work_cv_.notify_all(mutex_);
  return t;
}

std::size_t StreamingEngine::ready_run() const {
  return std::min(queued_run_, cfg_.batch_max);
}

void StreamingEngine::extend_queued_run() {
  // Walk forward from the current run end over newly queued slots. Each
  // shot is walked over exactly once between submission and dispatch, so
  // this is amortized O(1) — the dispatcher's CV predicates stay O(1)
  // instead of rescanning the ring under the producers' mutex. The ticket
  // check stops the walk at a slot whose occupant is an older,
  // still-in-flight shot (possible when batch_max > capacity / 2).
  while (queued_run_ < ring_.size()) {
    const Ticket t = head_ + queued_run_;
    const Slot& s = ring_[t % ring_.size()];
    if (s.state != SlotState::kQueued || s.ticket != t) break;
    ++queued_run_;
  }
}

void StreamingEngine::group_by_route() {
  // Stable counting sort on the serving target: shard s is bucket s, the
  // fallback bucket shards_count_. group_start_[k + 1] counts bucket k,
  // then the prefix sum turns it into bucket k + 1's first index.
  const auto bucket = [this](Ticket t) {
    const std::size_t by = slot_of(t).route.shard;
    return by == ShardBreaker::kFallback ? shards_count_ : by;
  };
  std::fill(group_start_.begin(), group_start_.end(), 0);
  for (const Ticket t : batch_tickets_) ++group_start_[bucket(t) + 1];
  std::partial_sum(group_start_.begin(), group_start_.end(),
                   group_start_.begin());
  grouped_tickets_.resize(batch_tickets_.size());
  for (const Ticket t : batch_tickets_)
    grouped_tickets_[group_start_[bucket(t)]++] = t;
  batch_tickets_.swap(grouped_tickets_);
}

void StreamingEngine::check_shard(std::size_t shard, const char* what) const {
  MLQR_CHECK_MSG(shard < shards_count_,
                 what << " index " << shard << " out of range (engine has "
                      << shards_count_ << " shards)");
}

DriftReport StreamingEngine::drift(std::size_t shard) const {
  check_shard(shard, "drift");
  MutexLock lock(mutex_);
  return drift_[shard].report(cfg_.drift);
}

void StreamingEngine::dispatch_loop() {
  MutexLock lock(mutex_);
  for (;;) {
    // Yield to pending swap_shard calls before claiming a batch: between
    // batches the mutex is held continuously under sustained load, so
    // without this gate a swapper could starve forever.
    while (!((swaps_pending_ == 0 && ready_run() > 0) ||
             (stop_ && head_ == next_ticket_)))
      work_cv_.wait(mutex_);
    if (stop_ && head_ == next_ticket_) return;  // Stopped and fully drained.
    // Micro-batch window: give the batch a chance to fill, but never hold
    // the oldest pending shot past its deadline. Skipped once stopping —
    // shutdown flushes immediately.
    if (cfg_.deadline_us > 0 && !stop_ && flush_ <= head_ &&
        ready_run() < cfg_.batch_max) {
      const auto deadline =
          slot_of(head_).arrival + std::chrono::microseconds(cfg_.deadline_us);
      while (!(stop_ || flush_ > head_ || ready_run() >= cfg_.batch_max)) {
        if (work_cv_.wait_until(mutex_, deadline) == std::cv_status::timeout)
          break;
      }
    }
    const std::size_t m = ready_run();
    const Ticket t0 = head_;
    head_ += m;
    queued_run_ -= m;
    // Admission control at claim time: frames already past the per-shot
    // deadline shed immediately (kDone/kShed, no classifier time), the
    // rest route by shard health and form the classification batch.
    const TimePoint claim_now = Clock::now();
    batch_tickets_.clear();
    bool any_shed = false;
    for (std::size_t i = 0; i < m; ++i) {
      Slot& slot = slot_of(t0 + i);
      if (cfg_.shot_deadline_us > 0 &&
          claim_now - slot.arrival >
              std::chrono::microseconds(cfg_.shot_deadline_us)) {
        slot.state = SlotState::kDone;
        slot.outcome = ShotStatus::kShed;
        ++shed_;
        ++completed_;
        any_shed = true;
      } else {
        slot.state = SlotState::kInFlight;
        slot.route = breaker_.enabled()
                         ? breaker_.route(slot.shard, cfg_.fallback.valid(),
                                          claim_now)
                         : ShardBreaker::Route{slot.shard, false};
        batch_tickets_.push_back(t0 + i);
      }
    }
    if (any_shed) done_cv_.notify_all(mutex_);
    const std::size_t b = batch_tickets_.size();
    if (b == 0) continue;  // Everything shed: nothing to classify.
    // EngineCore batches only contiguous same-backend runs, and keyed
    // multi-feedline traffic arrives interleaved: make each target's shots
    // one run. Per-target order is kept, so each shard's drift sampling,
    // breaker records and drift observations see the same sequence.
    group_by_route();
    batch_errors_.assign(b, std::exception_ptr{});
    batch_conf_.assign(b, std::nullopt);
    dispatching_ = true;
    // Custody hand-off: snapshot the (never-resized) ring, shard, ticket
    // and error tables under the lock, then classify through the
    // snapshots outside it. The claimed slots are exclusively ours until
    // marked kDone, so reading frames and writing labels/errors unlocked
    // is race-free (the producer's frame writes happened-before its
    // kQueued transition), and shards_ is stable while dispatching_ is
    // true: swap_shard waits for the gap between batches.
    Slot* const ring = ring_.data();
    const std::size_t cap = ring_.size();
    const EngineBackend* const shards = shards_.data();
    const EngineBackend* const fallback = &cfg_.fallback;
    const Ticket* const tickets = batch_tickets_.data();
    std::exception_ptr* const errors = batch_errors_.data();
    lock.unlock();

    // A throwing backend must not escape this jthread (std::terminate,
    // stuck kInFlight slots, hung waiters). EngineCore captures per-shot
    // exceptions into `errors`, so one bad shot poisons exactly one
    // ticket; the catch below covers infrastructure failures outside the
    // per-shot path (scratch growth, pool internals) by failing the whole
    // batch rather than killing the engine.
    std::exception_ptr batch_error;
    try {
      core_.classify(
          b,
          [ring, cap, tickets](std::size_t s) -> const IqTrace& {
            return ring[tickets[s] % cap].frame;
          },
          [ring, cap, shards, fallback,
           tickets](std::size_t s) -> const EngineBackend& {
            const std::size_t by = ring[tickets[s] % cap].route.shard;
            return by == ShardBreaker::kFallback ? *fallback : shards[by];
          },
          [ring, cap, tickets](std::size_t s) -> std::span<int> {
            Slot& slot = ring[tickets[s] % cap];
            return {slot.labels.data(), slot.labels.size()};
          },
          errors);
    } catch (...) {
      batch_error = std::current_exception();
    }

    // Sampled confidence scoring, still inside the batch's custody window:
    // every Nth OK shot per shard re-runs serially through the scored path
    // of the backend that served it. Labels are bit-identical by the
    // ScoredReadoutBackend contract, so only the score is kept; shards_ is
    // stable while dispatching_ is true, and a scoring failure is
    // swallowed — monitoring must never fail a ticket that classified
    // fine.
    if (cfg_.drift.enabled && !batch_error) {
      for (std::size_t s = 0; s < b; ++s) {
        if (errors[s]) continue;
        const Slot& slot = ring[tickets[s] % cap];
        const std::size_t sb = slot.route.shard;
        if (sb == ShardBreaker::kFallback) continue;
        if (score_counter_[sb]++ % cfg_.drift.confidence_sample != 0) continue;
        if (!shards[sb].supports_scored()) continue;
        try {
          batch_conf_[s] = shards[sb].classify_scored_into(
              slot.frame, drift_scratch_,
              {drift_labels_.data(), drift_labels_.size()});
        } catch (...) {
          // Skip the sample; the ticket's labels stand.
        }
      }
    }

    lock.lock();
    dispatching_ = false;
    const TimePoint done_now = Clock::now();
    for (std::size_t s = 0; s < b; ++s) {
      Slot& slot = slot_of(batch_tickets_[s]);
      const std::exception_ptr& err =
          batch_errors_[s] ? batch_errors_[s] : batch_error;
      slot.state = SlotState::kDone;
      if (err) {
        slot.outcome = ShotStatus::kFailed;
        ++failed_total_;
        ++failed_unconsumed_;
        if (!first_error_) first_error_ = err;
      } else {
        slot.outcome = ShotStatus::kDone;
        if (cfg_.drift.enabled && slot.route.shard != ShardBreaker::kFallback) {
          drift_[slot.route.shard].observe(slot.labels, batch_conf_[s],
                                           slot.expected);
          if (batch_conf_[s]) ++scored_shots_;
          if (!slot.expected.empty()) ++reference_shots_;
        }
      }
      if (breaker_.enabled())
        breaker_.record(slot.route.shard, slot.route.probe,
                        static_cast<bool>(err), done_now);
    }
    completed_ += b;
    ++batches_;
    done_cv_.notify_all(mutex_);  // Waits, drain() and swappers.
  }
}

ShotStatus StreamingEngine::wait_impl(
    Ticket t, std::span<int> out,
    std::optional<std::chrono::microseconds> timeout) {
  MLQR_CHECK_MSG(out.size() == n_qubits_,
                 "wait output span has " << out.size() << " slots, engine "
                                         << n_qubits_ << " qubits");
  const std::optional<TimePoint> deadline = deadline_after(timeout);
  MutexLock lock(mutex_);
  MLQR_CHECK_MSG(t != kNoTicket, "wait on invalid ticket");
  // A ticket a full ring ahead of the next unissued one cannot resolve
  // until this caller's own waits free slots — blocking on it is the
  // never-submitted-ticket foot-gun, so untimed waits refuse it. Timed
  // waits fall through: they have a guaranteed exit (kTimedOut) and
  // legitimately poll tickets that may be issued later.
  if (!timeout) {
    MLQR_CHECK_MSG(
        t < next_ticket_ + ring_.size(),
        "wait on ticket " << t << " would block forever: only " << next_ticket_
                          << " tickets have been issued and the ring holds "
                          << ring_.size()
                          << " — submit it first, or poll with wait_for()");
  }
  Slot& slot = slot_of(t);
  // Like drain(): a consumer blocked on this ticket should not ride out
  // the micro-batch deadline while the classifier sits idle.
  if (flush_ <= t) {
    flush_ = t + 1;
    work_cv_.notify_all(mutex_);
  }
  for (;;) {
    if (slot.ticket == t && slot.state == SlotState::kDone) break;
    // Recycled past t, or t consumed and freed: the labels are gone. A
    // virgin slot (kNoTicket) or an older occupant means t is still on its
    // way — sleep until the next batch completes and re-check.
    MLQR_CHECK_MSG(
        slot.ticket == kNoTicket || slot.ticket < t ||
            (slot.ticket == t && slot.state != SlotState::kFree),
        "ticket " << t << " was already waited (each ticket is one-shot)");
    if (!deadline) {
      done_cv_.wait(mutex_);
    } else if (done_cv_.wait_until(mutex_, *deadline) ==
                   std::cv_status::timeout &&
               !(slot.ticket == t && slot.state == SlotState::kDone)) {
      return ShotStatus::kTimedOut;  // Not consumed: still waitable later.
    }
  }
  if (slot.outcome == ShotStatus::kFailed) {
    // The failure details stay with drain() until every failed ticket has
    // been consumed.
    if (--failed_unconsumed_ == 0) first_error_ = nullptr;
  } else if (slot.outcome == ShotStatus::kDone) {
    std::copy(slot.labels.begin(), slot.labels.end(), out.begin());
  }
  slot.state = SlotState::kFree;  // ticket stays == t: marks "consumed".
  const ShotStatus status = slot.outcome;
  lock.unlock();
  space_cv_.notify_all();
  return status;
}

ShotStatus StreamingEngine::wait_result(Ticket t, std::span<int> out) {
  return wait_impl(t, out, std::nullopt);
}

ShotStatus StreamingEngine::wait_for(Ticket t, std::span<int> out,
                                     std::chrono::microseconds timeout) {
  return wait_impl(t, out, timeout);
}

void StreamingEngine::drain() {
  MutexLock lock(mutex_);
  const Ticket target = next_ticket_;
  // Everything already submitted should dispatch now rather than ride out
  // the micro-batch deadline.
  flush_ = std::max(flush_, target);
  work_cv_.notify_all(mutex_);
  while (completed_ < target) done_cv_.wait(mutex_);
  // Surface classify failures to flush-and-check callers that never wait
  // individual tickets. The failed tickets stay retrievable (each wait
  // still reports kFailed), and once all are consumed drain() goes quiet
  // again. Shed tickets are a reported outcome, not a failure — no throw.
  if (failed_unconsumed_ > 0) std::rethrow_exception(first_error_);
}

void StreamingEngine::swap_shard(std::size_t shard, EngineBackend backend) {
  MLQR_CHECK_MSG(backend.valid(), "swap_shard got an invalid backend");
  MLQR_CHECK_MSG(backend.num_qubits() == n_qubits_,
                 "swap_shard backend reports " << backend.num_qubits()
                     << " qubits, engine serves " << n_qubits_);
  check_shard(shard, "swap_shard");
  MutexLock lock(mutex_);
  // Park until the dispatcher is between micro-batches; the pending-swap
  // count makes it yield the next claim to us, so this is bounded by one
  // batch even under saturation.
  ++swaps_pending_;
  while (dispatching_) done_cv_.wait(mutex_);
  shards_[shard] = std::move(backend);
  // Fresh calibration means fresh health: a quarantined shard re-enters
  // service immediately (no probe can be in flight here — probes only
  // live while dispatching_ is true). The drift monitor resets too — the
  // new backend earns its own baselines (score_counter_ is untouched: it
  // is dispatcher-only sampling phase, not monitor state).
  breaker_.reset(shard);
  drift_[shard] = DriftMonitor(cfg_.drift);
  ++swaps_;
  --swaps_pending_;
  work_cv_.notify_all(mutex_);  // Release the dispatcher's swap gate.
}

ShardHealth StreamingEngine::shard_health(std::size_t shard) const {
  check_shard(shard, "shard_health");
  MutexLock lock(mutex_);
  return breaker_.health(shard);
}

StreamingStats StreamingEngine::stats() const {
  MutexLock lock(mutex_);
  StreamingStats s;
  s.submitted = next_ticket_;
  s.completed = completed_;
  s.failed = failed_total_;
  s.shed = shed_;
  s.batches = batches_;
  s.swaps = swaps_;
  s.rerouted = breaker_.rerouted();
  s.quarantines = breaker_.quarantines();
  s.probes = breaker_.probes();
  s.recoveries = breaker_.recoveries();
  s.reference_shots = reference_shots_;
  s.scored_shots = scored_shots_;
  s.shards_quarantined = breaker_.quarantined();
  for (const DriftMonitor& m : drift_)
    if (m.report(cfg_.drift).drifted) ++s.shards_drifted;
  return s;
}

}  // namespace mlqr
