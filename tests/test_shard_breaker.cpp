// ShardBreaker as a pure value: every transition driven directly with
// injected times — no engine, no threads, no clock reads.
#include "pipeline/shard_breaker.h"

#include <gtest/gtest.h>

#include <chrono>

#include "common/error.h"

namespace mlqr {
namespace {

using namespace std::chrono_literals;
using Route = ShardBreaker::Route;

const ShardBreaker::Clock::time_point t0{};  // Injected epoch.

/// `n` consecutive failures served by `shard`, all at time `now`.
void fail_n(ShardBreaker& b, std::size_t shard, std::size_t n,
            ShardBreaker::Clock::time_point now = t0) {
  for (std::size_t k = 0; k < n; ++k) b.record(shard, false, true, now);
}

TEST(ShardBreaker, QuarantinesAtExactlyQuarantineAfterFailures) {
  ShardBreaker b(2, /*quarantine_after=*/3, 1ms);
  fail_n(b, 0, 2);
  EXPECT_EQ(b.health(0), ShardHealth::kHealthy);
  EXPECT_EQ(b.quarantines(), 0u);
  fail_n(b, 0, 1);
  EXPECT_EQ(b.health(0), ShardHealth::kQuarantined);
  EXPECT_EQ(b.health(1), ShardHealth::kHealthy);
  EXPECT_EQ(b.quarantines(), 1u);
  EXPECT_EQ(b.quarantined(), 1u);
}

TEST(ShardBreaker, SuccessResetsTheStreak) {
  ShardBreaker b(1, 3, 1ms);
  fail_n(b, 0, 2);
  b.record(0, false, /*failed=*/false, t0);
  fail_n(b, 0, 2);
  EXPECT_EQ(b.health(0), ShardHealth::kHealthy);  // 2, not 4, in a row.
  fail_n(b, 0, 1);
  EXPECT_EQ(b.health(0), ShardHealth::kQuarantined);
}

TEST(ShardBreaker, NoProbeBeforeTheBackoff) {
  ShardBreaker b(2, 1, /*probe_backoff=*/1000us);
  fail_n(b, 0, 1);
  const Route early = b.route(0, false, t0 + 999us);
  EXPECT_EQ(early.shard, 1u);
  EXPECT_FALSE(early.probe);
  EXPECT_EQ(b.probes(), 0u);
  const Route due = b.route(0, false, t0 + 1000us);
  EXPECT_EQ(due.shard, 0u);
  EXPECT_TRUE(due.probe);
  EXPECT_EQ(b.health(0), ShardHealth::kProbing);
  EXPECT_EQ(b.probes(), 1u);
  // A successful probe re-admits the shard.
  b.record(0, /*probe=*/true, /*failed=*/false, t0 + 1100us);
  EXPECT_EQ(b.health(0), ShardHealth::kHealthy);
  EXPECT_EQ(b.recoveries(), 1u);
}

TEST(ShardBreaker, AtMostOneProbeInFlight) {
  ShardBreaker b(2, 1, 0us);
  fail_n(b, 0, 1);
  EXPECT_TRUE(b.route(0, false, t0).probe);
  const Route second = b.route(0, false, t0);  // The probe slot is taken.
  EXPECT_FALSE(second.probe);
  EXPECT_EQ(second.shard, 1u);
  EXPECT_EQ(b.probes(), 1u);
  // A resolved probe frees the slot (a failure keeps the shard out).
  b.record(0, true, true, t0);
  EXPECT_EQ(b.health(0), ShardHealth::kQuarantined);
  EXPECT_TRUE(b.route(0, false, t0).probe);
  EXPECT_EQ(b.probes(), 2u);
}

TEST(ShardBreaker, FailedProbeRestartsTheBackoff) {
  ShardBreaker b(2, 1, 1000us);
  fail_n(b, 0, 1);
  ASSERT_TRUE(b.route(0, false, t0 + 1000us).probe);
  const auto failed_at = t0 + 1500us;
  b.record(0, true, /*failed=*/true, failed_at);
  EXPECT_EQ(b.health(0), ShardHealth::kQuarantined);
  EXPECT_EQ(b.quarantines(), 1u);  // Still the same quarantine.
  EXPECT_FALSE(b.route(0, false, failed_at + 999us).probe);
  EXPECT_TRUE(b.route(0, false, failed_at + 1000us).probe);
}

TEST(ShardBreaker, RerouteOrderIsNextHealthyThenFallbackThenTarget) {
  ShardBreaker b(3, 1, 1h);  // No probes during the test.
  fail_n(b, 2, 1);
  EXPECT_EQ(b.route(2, true, t0).shard, 0u);  // Scan wraps past the end.
  fail_n(b, 0, 1);
  EXPECT_EQ(b.route(0, true, t0).shard, 1u);  // Next healthy shard first.
  EXPECT_EQ(b.route(2, true, t0).shard, 1u);
  fail_n(b, 1, 1);
  EXPECT_EQ(b.route(0, true, t0).shard, ShardBreaker::kFallback);
  const Route last = b.route(0, false, t0);  // Nothing left: the target.
  EXPECT_EQ(last.shard, 0u);
  EXPECT_FALSE(last.probe);
  EXPECT_EQ(b.rerouted(), 4u);  // The last resort is not a reroute.
  // Fallback-served shots neither fail nor recover a shard.
  b.record(ShardBreaker::kFallback, false, false, t0);
  EXPECT_EQ(b.quarantined(), 3u);
  EXPECT_EQ(b.recoveries(), 0u);
  // Any success on a quarantined shard — here last-resort traffic —
  // re-admits it.
  b.record(0, false, false, t0);
  EXPECT_EQ(b.health(0), ShardHealth::kHealthy);
  EXPECT_EQ(b.recoveries(), 1u);
}

TEST(ShardBreaker, ResetRestoresHealthAndKeepsCounters) {
  ShardBreaker b(2, 2, 1h);
  fail_n(b, 0, 2);
  ASSERT_EQ(b.health(0), ShardHealth::kQuarantined);
  EXPECT_EQ(b.route(0, false, t0).shard, 1u);
  b.reset(0);
  EXPECT_EQ(b.health(0), ShardHealth::kHealthy);
  EXPECT_EQ(b.route(0, false, t0).shard, 0u);
  EXPECT_EQ(b.quarantines(), 1u);
  EXPECT_EQ(b.rerouted(), 1u);
  fail_n(b, 0, 1);  // The streak restarted from zero too.
  EXPECT_EQ(b.health(0), ShardHealth::kHealthy);
}

TEST(ShardBreaker, DisabledIsTheIdentity) {
  ShardBreaker b(2, /*quarantine_after=*/0, 0us);
  EXPECT_FALSE(b.enabled());
  fail_n(b, 0, 100);
  EXPECT_EQ(b.health(0), ShardHealth::kHealthy);
  const Route r = b.route(0, true, t0);
  EXPECT_EQ(r.shard, 0u);
  EXPECT_FALSE(r.probe);
  EXPECT_EQ(b.quarantines() + b.rerouted() + b.probes(), 0u);
}

TEST(ShardBreaker, RejectsZeroShardsAndBadIndices) {
  EXPECT_THROW(ShardBreaker(0, 1, 0us), Error);
  ShardBreaker b(2, 1, 0us);
  EXPECT_ANY_THROW(b.health(2));
}

}  // namespace
}  // namespace mlqr
