// Per-shard circuit breaker for the streaming engine, as a pure value.
//
// A shard that fails `quarantine_after` consecutive shots is quarantined:
// claim-time routing diverts its traffic to the next healthy shard, else
// to the fallback backend, else — last resort, so no ticket is ever
// stranded — back onto the quarantined shard itself. Once
// `probe_backoff` has passed since the quarantine (or since the last
// failed probe), one live shot at a time routes back as a half-open
// probe; a success re-admits the shard, a failure restarts the back-off.
//
// Like RecalibrationPolicy this is a single-threaded state machine with
// no lock and no clock of its own: the engine drives it under its mutex
// and passes `now` in, and tests drive it directly with injected times
// (tools/lint_invariants.py keeps clocks, locks and Rng out of this file).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mlqr {

/// Externally visible health of one shard (StreamingEngine::shard_health).
enum class ShardHealth : std::uint8_t {
  kHealthy,      ///< Serving its own traffic.
  kProbing,      ///< Quarantined, with a half-open probe shot in flight.
  kQuarantined,  ///< Not serving; traffic reroutes until a probe succeeds
                 ///< or the shard is reset (swap_shard).
};

class ShardBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  /// Route::shard value for shots served by the fallback backend.
  static constexpr std::size_t kFallback = ~std::size_t{0};

  /// Where one claimed shot classifies.
  struct Route {
    std::size_t shard = 0;  ///< Serving shard, or kFallback.
    bool probe = false;     ///< A half-open probe of a quarantined shard.
  };

  /// quarantine_after == 0 disables the breaker: route() is the identity
  /// and record() a no-op.
  ShardBreaker(std::size_t n_shards, std::size_t quarantine_after,
               std::chrono::microseconds probe_backoff);

  bool enabled() const { return quarantine_after_ > 0; }

  /// Claim-time routing for a shot targeting `target`. Counts reroutes
  /// and probes; a probe occupies the target's one probe slot until its
  /// record().
  Route route(std::size_t target, bool has_fallback, Clock::time_point now);

  /// Completion-time bookkeeping for one classified shot: failure
  /// streaks, quarantine, probe evaluation, recovery. Fallback-served
  /// shots neither fail nor recover a shard.
  void record(std::size_t served_by, bool probe, bool failed,
              Clock::time_point now);

  /// Fresh calibration means fresh health: back to healthy, streak and
  /// probes cleared. Counters are lifetime totals and keep their values.
  void reset(std::size_t shard);

  ShardHealth health(std::size_t shard) const;
  std::size_t quarantined() const;  ///< Shards currently quarantined.

  std::uint64_t rerouted() const { return rerouted_; }
  std::uint64_t quarantines() const { return quarantines_; }
  std::uint64_t probes() const { return probes_; }
  std::uint64_t recoveries() const { return recoveries_; }

 private:
  struct ShardState {
    std::size_t consecutive_failures = 0;
    bool probe_in_flight = false;
    bool quarantined = false;
    /// Earliest time a half-open probe may route traffic back.
    Clock::time_point retry_at{};
  };

  std::size_t quarantine_after_;
  std::chrono::microseconds probe_backoff_;
  std::vector<ShardState> shards_;
  std::uint64_t rerouted_ = 0;     ///< Shots served off their target shard.
  std::uint64_t quarantines_ = 0;  ///< Healthy -> quarantined transitions.
  std::uint64_t probes_ = 0;       ///< Half-open probe shots routed.
  std::uint64_t recoveries_ = 0;   ///< Quarantined -> healthy via a success.
};

}  // namespace mlqr
