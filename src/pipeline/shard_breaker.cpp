#include "pipeline/shard_breaker.h"

#include <algorithm>

#include "common/error.h"

namespace mlqr {

ShardBreaker::ShardBreaker(std::size_t n_shards, std::size_t quarantine_after,
                           std::chrono::microseconds probe_backoff)
    : quarantine_after_(quarantine_after),
      probe_backoff_(probe_backoff),
      shards_(n_shards) {
  MLQR_CHECK_MSG(n_shards > 0, "shard breaker needs >= 1 shard");
}

ShardBreaker::Route ShardBreaker::route(std::size_t target, bool has_fallback,
                                        Clock::time_point now) {
  ShardState& st = shards_.at(target);
  if (!enabled() || !st.quarantined) return {target, false};
  // Half-open probe: once the back-off has elapsed, let one live shot at a
  // time test the shard (a success re-admits it).
  if (now >= st.retry_at && !st.probe_in_flight) {
    st.probe_in_flight = true;
    ++probes_;
    return {target, true};
  }
  // Quarantined: divert to the next healthy shard (deterministic scan
  // order keeps rerouting reproducible for a given failure pattern).
  for (std::size_t k = 1; k < shards_.size(); ++k) {
    const std::size_t cand = (target + k) % shards_.size();
    if (!shards_[cand].quarantined) {
      ++rerouted_;
      return {cand, false};
    }
  }
  if (has_fallback) {
    ++rerouted_;
    return {kFallback, false};
  }
  // Every shard quarantined and no fallback: last resort, serve on the
  // target anyway — a success recovers it, a failure restarts its
  // back-off, and either way the ticket resolves instead of stranding.
  return {target, false};
}

void ShardBreaker::record(std::size_t served_by, bool probe, bool failed,
                          Clock::time_point now) {
  if (!enabled() || served_by == kFallback) return;
  ShardState& st = shards_.at(served_by);
  if (probe) st.probe_in_flight = false;
  if (!failed) {
    st.consecutive_failures = 0;
    if (st.quarantined) {
      // Any success on a quarantined shard — probe or last-resort — means
      // it is serving correct labels again: re-admit it.
      st.quarantined = false;
      ++recoveries_;
    }
    return;
  }
  if (!st.quarantined) {
    if (++st.consecutive_failures < quarantine_after_) return;
    st.quarantined = true;
    ++quarantines_;
  }
  // Fresh quarantine, failed probe, or failed last-resort traffic on an
  // all-quarantined engine: (re)start the back-off window.
  st.retry_at = now + probe_backoff_;
}

void ShardBreaker::reset(std::size_t shard) { shards_.at(shard) = {}; }

ShardHealth ShardBreaker::health(std::size_t shard) const {
  const ShardState& st = shards_.at(shard);
  if (!st.quarantined) return ShardHealth::kHealthy;
  return st.probe_in_flight ? ShardHealth::kProbing
                            : ShardHealth::kQuarantined;
}

std::size_t ShardBreaker::quarantined() const {
  return static_cast<std::size_t>(
      std::count_if(shards_.begin(), shards_.end(),
                    [](const ShardState& st) { return st.quarantined; }));
}

}  // namespace mlqr
