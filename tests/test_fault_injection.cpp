// FaultyBackend contracts: whether call i faults is a pure function of
// (plan, i) — reproducible run-to-run and across thread interleavings —
// faults land as the advertised shapes (InjectedFault throw, delay,
// always-wrong in-range corruption), and a default plan is a bit-identical
// passthrough, including through a StreamingEngine with the breaker armed.
#include "pipeline/fault_injection.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "discrim/inference_scratch.h"
#include "pipeline/backend_trait.h"
#include "pipeline/streaming_engine.h"
#include "sim/iq.h"

namespace mlqr {
namespace {

static_assert(ReadoutBackend<FaultyBackend>,
              "FaultyBackend must plug into make_backend and the engines");

/// Deterministic two-qubit inner backend: label q = int(trace.i[0]) + q,
/// so tests can tell exactly which frame produced which labels.
EngineBackend echo_backend() {
  return EngineBackend(
      "echo", 2, [](const IqTrace& t, InferenceScratch&, std::span<int> out) {
        const int base = t.i.empty() ? 0 : static_cast<int>(t.i[0]);
        for (std::size_t q = 0; q < out.size(); ++q)
          out[q] = base + static_cast<int>(q);
      });
}

IqTrace frame(float v) {
  IqTrace t(8);
  t.i[0] = v;
  return t;
}

TEST(FaultInjection, WindowScheduleFiresOnExactCallIndices) {
  FaultPlan plan;
  plan.windows = {{2, 4, FaultKind::kThrow}};
  FaultyBackend fb(echo_backend(), plan);
  InferenceScratch scratch;
  std::vector<int> out(2);
  for (int call = 0; call < 6; ++call) {
    if (call == 2 || call == 3) {
      EXPECT_THROW(fb.classify_into(frame(1.0f), scratch, out), InjectedFault)
          << "call " << call;
    } else {
      fb.classify_into(frame(1.0f), scratch, out);
      EXPECT_EQ(out, (std::vector<int>{1, 2})) << "call " << call;
    }
  }
  const FaultInjectionStats st = fb.stats();
  EXPECT_EQ(st.calls, 6u);
  EXPECT_EQ(st.throws, 2u);
  EXPECT_EQ(st.delays, 0u);
  EXPECT_EQ(st.corruptions, 0u);
}

TEST(FaultInjection, CorruptionIsAlwaysWrongAndInRange) {
  FaultPlan plan;
  plan.windows = {{0, 2, FaultKind::kCorrupt}};
  FaultyBackend fb(echo_backend(), plan);
  InferenceScratch scratch;
  std::vector<int> out(2);
  fb.classify_into(frame(0.0f), scratch, out);  // Inner {0,1}: 0 flips to 1.
  EXPECT_EQ(out, (std::vector<int>{1, 1}));
  fb.classify_into(frame(2.0f), scratch, out);  // Inner {2,3}: 2 flips to 0.
  EXPECT_EQ(out, (std::vector<int>{0, 3}));
  fb.classify_into(frame(2.0f), scratch, out);  // Outside window: untouched.
  EXPECT_EQ(out, (std::vector<int>{2, 3}));
  EXPECT_EQ(fb.stats().corruptions, 2u);
}

TEST(FaultInjection, DelayFaultCompletesWithCorrectLabels) {
  FaultPlan plan;
  plan.windows = {{0, 1, FaultKind::kDelay}};
  plan.delay_us = 1;
  FaultyBackend fb(echo_backend(), plan);
  InferenceScratch scratch;
  std::vector<int> out(2);
  fb.classify_into(frame(5.0f), scratch, out);  // Delayed but correct.
  EXPECT_EQ(out, (std::vector<int>{5, 6}));
  fb.classify_into(frame(5.0f), scratch, out);
  EXPECT_EQ(out, (std::vector<int>{5, 6}));
  const FaultInjectionStats st = fb.stats();
  EXPECT_EQ(st.delays, 1u);
  EXPECT_EQ(st.throws + st.corruptions, 0u);
}

TEST(FaultInjection, DecisionsArePureFunctionsOfSeedAndIndex) {
  FaultPlan plan;
  plan.seed = 42;
  plan.throw_rate = 0.1;
  plan.delay_rate = 0.1;
  plan.corrupt_rate = 0.1;
  const auto decisions = [](const FaultPlan& p) {
    std::vector<int> d;
    for (std::uint64_t i = 0; i < 512; ++i) {
      FaultKind kind{};
      d.push_back(fault_decision(p, i, kind) ? static_cast<int>(kind) : -1);
    }
    return d;
  };
  const std::vector<int> a = decisions(plan);
  EXPECT_EQ(a, decisions(plan));  // Bit-identical replay.
  std::size_t faults = 0;
  for (int d : a) faults += d >= 0 ? 1 : 0;
  EXPECT_GT(faults, 0u);    // ~30% of 512 calls fault...
  EXPECT_LT(faults, 512u);  // ...but nowhere near all of them.
  FaultPlan other = plan;
  other.seed = 43;
  EXPECT_NE(a, decisions(other));  // The seed matters.
}

TEST(FaultInjection, ProbabilisticThrowsMatchTheDecisionFunction) {
  FaultPlan plan;
  plan.seed = 7;
  plan.throw_rate = 0.25;
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    FaultKind kind{};
    expected += fault_decision(plan, i, kind) ? 1 : 0;
  }
  FaultyBackend fb(echo_backend(), plan);
  InferenceScratch scratch;
  std::vector<int> out(2);
  std::uint64_t caught = 0;
  for (int call = 0; call < 200; ++call) {
    try {
      fb.classify_into(frame(1.0f), scratch, out);
    } catch (const InjectedFault&) {
      ++caught;
    }
  }
  EXPECT_EQ(caught, expected);
  EXPECT_EQ(fb.stats().throws, expected);
  EXPECT_EQ(fb.stats().calls, 200u);
}

TEST(FaultInjection, DefaultPlanIsBitIdenticalThroughStreamingEngine) {
  FaultyBackend fb(echo_backend(), FaultPlan{});
  StreamingConfig cfg;
  cfg.queue_capacity = 64;
  cfg.batch_max = 8;
  cfg.quarantine_after = 2;  // Armed breaker must stay untriggered.
  StreamingEngine faulty_eng(fb.backend(), 2, cfg);
  StreamingEngine plain_eng(echo_backend(), 2, cfg);
  std::vector<int> a(2);
  std::vector<int> b(2);
  for (int s = 0; s < 64; ++s) {
    const float v = static_cast<float>(s % 5);
    ASSERT_EQ(faulty_eng.wait_result(*faulty_eng.submit(frame(v)), a),
              ShotStatus::kDone);
    ASSERT_EQ(plain_eng.wait_result(*plain_eng.submit(frame(v)), b),
              ShotStatus::kDone);
    ASSERT_EQ(a, b) << "shot " << s;
  }
  const FaultInjectionStats st = fb.stats();
  EXPECT_EQ(st.calls, 64u);
  EXPECT_EQ(st.throws + st.delays + st.corruptions, 0u);
  EXPECT_EQ(faulty_eng.stats().quarantines, 0u);
}

TEST(FaultInjection, WindowDrivenOutageTripsBreakerThenRecovers) {
  // Calls [0, 2) on the faulty shard throw: quarantine_after = 2 trips the
  // breaker; with zero probe back-off, call 2 (outside the window) probes
  // successfully and re-admits the shard.
  FaultPlan plan;
  plan.windows = {{0, 2, FaultKind::kThrow}};
  FaultyBackend fb(echo_backend(), plan);
  StreamingConfig cfg;
  cfg.batch_max = 1;
  cfg.deadline_us = 0;
  cfg.quarantine_after = 2;
  cfg.probe_backoff_us = 0;
  std::vector<EngineBackend> shards{fb.backend(), echo_backend()};
  StreamingEngine eng(std::move(shards), cfg);
  std::vector<int> out(2);
  const SubmitOptions to0{.key = 0};
  EXPECT_EQ(eng.wait_result(*eng.submit(frame(1.0f), to0), out),
            ShotStatus::kFailed);
  EXPECT_EQ(eng.shard_health(0), ShardHealth::kHealthy);
  // The second failure trips the breaker; drain() carries the details.
  const auto second = *eng.submit(frame(1.0f), to0);
  EXPECT_THROW(eng.drain(), InjectedFault);
  EXPECT_EQ(eng.wait_result(second, out), ShotStatus::kFailed);
  EXPECT_EQ(eng.shard_health(0), ShardHealth::kQuarantined);
  ASSERT_EQ(eng.wait_result(*eng.submit(frame(4.0f), to0), out),
            ShotStatus::kDone);
  EXPECT_EQ(out, (std::vector<int>{4, 5}));
  EXPECT_EQ(eng.shard_health(0), ShardHealth::kHealthy);
  const StreamingStats st = eng.stats();
  EXPECT_EQ(st.quarantines, 1u);
  EXPECT_EQ(st.recoveries, 1u);
  EXPECT_EQ(fb.stats().throws, 2u);
}

}  // namespace
}  // namespace mlqr
