// StreamingEngine contracts: asynchronous sharded ingest produces labels
// bit-identical to the synchronous ReadoutEngine::process_batch path for
// the same frames — across shard counts, worker budgets, micro-batch knobs
// and submission patterns — and every ticket is individually awaitable in
// any order.
#include "pipeline/streaming_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "discrim/proposed.h"
#include "readout/dataset.h"

namespace mlqr {
namespace {

/// Shared small two-qubit dataset + trained design (training dominates the
/// file's runtime, so it happens once).
struct Fixture {
  ReadoutDataset ds;
  ProposedDiscriminator proposed;
  std::vector<int> sync_labels;  ///< process_batch over every trace.

  static const Fixture& get() {
    static const Fixture fx = [] {
      DatasetConfig cfg;
      cfg.chip = ChipProfile::test_two_qubit();
      cfg.shots_per_basis_state = 160;
      cfg.seed = 20260730;
      ReadoutDataset ds = generate_dataset(cfg);
      ProposedConfig pcfg;
      pcfg.trainer.epochs = 6;
      ProposedDiscriminator p = ProposedDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip, pcfg);
      ReadoutEngine sync(make_backend(p));
      std::vector<int> labels = sync.process_batch(ds.shots.traces).labels;
      return Fixture{std::move(ds), std::move(p), std::move(labels)};
    }();
    return fx;
  }
};

/// Submits every dataset trace, drains, and collects labels shot-major.
/// Callers must size queue_capacity >= traces.size(): nothing is waited
/// (= no slot is freed) until every submit has returned.
std::vector<int> stream_all(StreamingEngine& eng,
                            const std::vector<IqTrace>& traces) {
  std::vector<StreamingEngine::Ticket> tickets;
  tickets.reserve(traces.size());
  for (const IqTrace& t : traces) tickets.push_back(*eng.submit(t));
  eng.drain();
  const std::size_t nq = eng.num_qubits();
  std::vector<int> labels(traces.size() * nq, -1);
  for (std::size_t s = 0; s < tickets.size(); ++s)
    EXPECT_EQ(eng.wait_result(tickets[s], {labels.data() + s * nq, nq}),
              ShotStatus::kDone);
  return labels;
}

/// Waits ticket `t`, expecting kDone, and returns its labels.
std::vector<int> done_labels(StreamingEngine& eng, StreamingEngine::Ticket t) {
  std::vector<int> out(eng.num_qubits(), -1);
  EXPECT_EQ(eng.wait_result(t, out), ShotStatus::kDone) << "ticket " << t;
  return out;
}

TEST(Streaming, MatchesSyncAcrossShardCounts) {
  const Fixture& fx = Fixture::get();
  for (std::size_t shards : {1u, 2u, 3u}) {
    StreamingConfig cfg;
    cfg.queue_capacity = fx.ds.shots.size();
    cfg.batch_max = 32;
    StreamingEngine eng(make_backend(fx.proposed), shards, cfg);
    EXPECT_EQ(eng.num_shards(), shards);
    EXPECT_EQ(stream_all(eng, fx.ds.shots.traces), fx.sync_labels)
        << shards << " shards";
    EXPECT_EQ(eng.stats().completed, fx.ds.shots.size());
  }
}

TEST(Streaming, MatchesSyncAcrossWorkerAndBatchKnobs) {
  const Fixture& fx = Fixture::get();
  for (std::size_t threads : {1u, 4u}) {
    for (std::size_t batch_max : {1u, 7u, 128u}) {
      StreamingConfig cfg;
      cfg.queue_capacity = fx.ds.shots.size();
      cfg.batch_max = batch_max;
      cfg.deadline_us = batch_max == 1 ? 0 : 200;  // Also cover "no wait".
      cfg.engine.threads = threads;
      cfg.engine.min_shots_per_thread = 1;
      StreamingEngine eng(make_backend(fx.proposed), 2, cfg);
      EXPECT_EQ(stream_all(eng, fx.ds.shots.traces), fx.sync_labels)
          << threads << " threads, batch_max " << batch_max;
      EXPECT_GE(eng.stats().batches, 1u);
    }
  }
}

TEST(Streaming, KeyedRoutingMatchesSync) {
  const Fixture& fx = Fixture::get();
  StreamingConfig scfg;
  scfg.queue_capacity = fx.ds.shots.size();
  StreamingEngine eng(make_backend(fx.proposed), 3, scfg);
  const std::vector<IqTrace>& traces = fx.ds.shots.traces;
  std::vector<StreamingEngine::Ticket> tickets;
  for (std::size_t s = 0; s < traces.size(); ++s)
    tickets.push_back(*eng.submit(traces[s], {.key = s * 7 + 1}));
  eng.drain();
  for (std::size_t s = 0; s < tickets.size(); ++s) {
    const std::vector<int> got = done_labels(eng, tickets[s]);
    for (std::size_t q = 0; q < eng.num_qubits(); ++q)
      ASSERT_EQ(got[q], fx.sync_labels[s * eng.num_qubits() + q])
          << "shot " << s << " qubit " << q;
  }
}

TEST(Streaming, TicketsAwaitableInAnyOrder) {
  // Shards finish micro-batches in whatever order the pool schedules;
  // waiting tickets newest-first (and in a shuffled middle order) must
  // still hand each ticket its own shot's labels.
  const Fixture& fx = Fixture::get();
  StreamingConfig cfg;
  cfg.queue_capacity = 512;
  cfg.batch_max = 8;
  StreamingEngine eng(make_backend(fx.proposed), 2, cfg);
  const std::size_t n = std::min<std::size_t>(200, fx.ds.shots.size());
  std::vector<StreamingEngine::Ticket> tickets;
  for (std::size_t s = 0; s < n; ++s)
    tickets.push_back(*eng.submit(fx.ds.shots.traces[s]));
  // Reverse wait order: ticket n-1 first, ticket 0 last.
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t s = n - 1 - r;
    const std::vector<int> got = done_labels(eng, tickets[s]);
    for (std::size_t q = 0; q < eng.num_qubits(); ++q)
      ASSERT_EQ(got[q], fx.sync_labels[s * eng.num_qubits() + q])
          << "shot " << s << " qubit " << q;
  }
}

TEST(Streaming, BoundedRingAppliesBackpressure) {
  // Ring far smaller than the stream: submit blocks until a wait frees
  // slots, and every label still matches the synchronous path.
  const Fixture& fx = Fixture::get();
  StreamingConfig cfg;
  cfg.queue_capacity = 4;
  cfg.batch_max = 4;
  cfg.deadline_us = 50;
  StreamingEngine eng(make_backend(fx.proposed), 2, cfg);
  const std::size_t n = std::min<std::size_t>(150, fx.ds.shots.size());
  std::jthread producer([&] {
    for (std::size_t s = 0; s < n; ++s) eng.submit(fx.ds.shots.traces[s]);
  });
  std::vector<int> out(eng.num_qubits());
  for (std::size_t s = 0; s < n; ++s) {  // Tickets are issued 0..n-1 in order.
    ASSERT_EQ(eng.wait_result(s, out), ShotStatus::kDone);
    for (std::size_t q = 0; q < eng.num_qubits(); ++q)
      ASSERT_EQ(out[q], fx.sync_labels[s * eng.num_qubits() + q])
          << "shot " << s << " qubit " << q;
  }
  EXPECT_EQ(eng.stats().submitted, n);
}

TEST(Streaming, MultipleProducersKeepTicketFrameBinding) {
  const Fixture& fx = Fixture::get();
  StreamingConfig cfg;
  cfg.queue_capacity = 256;  // >= total submitted: waits happen after drain.
  cfg.batch_max = 16;
  StreamingEngine eng(make_backend(fx.proposed), 3, cfg);
  constexpr std::size_t kProducers = 4;
  const std::size_t per = std::min<std::size_t>(50, fx.ds.shots.size() / kProducers);
  std::vector<std::vector<std::pair<StreamingEngine::Ticket, std::size_t>>>
      submitted(kProducers);
  {
    std::vector<std::jthread> producers;
    for (std::size_t p = 0; p < kProducers; ++p)
      producers.emplace_back([&, p] {
        for (std::size_t k = 0; k < per; ++k) {
          const std::size_t shot = p * per + k;
          submitted[p].emplace_back(*eng.submit(fx.ds.shots.traces[shot]),
                                    shot);
        }
      });
  }
  eng.drain();
  for (const auto& batch : submitted)
    for (const auto& [ticket, shot] : batch) {
      const std::vector<int> got = done_labels(eng, ticket);
      for (std::size_t q = 0; q < eng.num_qubits(); ++q)
        ASSERT_EQ(got[q], fx.sync_labels[shot * eng.num_qubits() + q])
            << "shot " << shot << " qubit " << q;
    }
  EXPECT_EQ(eng.stats().completed, kProducers * per);
}

TEST(Streaming, DeadlineFlushesPartialBatches) {
  // Far fewer shots than batch_max: without the deadline (or drain's
  // flush) these would sit forever; with it they classify promptly.
  const Fixture& fx = Fixture::get();
  StreamingConfig cfg;
  cfg.batch_max = 256;
  cfg.deadline_us = 100;
  StreamingEngine eng(make_backend(fx.proposed), 1, cfg);
  const auto t0 = *eng.submit(fx.ds.shots.traces[0]);
  const auto t1 = *eng.submit(fx.ds.shots.traces[1]);
  const std::vector<int> l0 = done_labels(eng, t0);
  const std::vector<int> l1 = done_labels(eng, t1);
  for (std::size_t q = 0; q < eng.num_qubits(); ++q) {
    EXPECT_EQ(l0[q], fx.sync_labels[q]);
    EXPECT_EQ(l1[q], fx.sync_labels[eng.num_qubits() + q]);
  }
}

TEST(Streaming, WaitContractViolationsThrow) {
  const Fixture& fx = Fixture::get();
  StreamingEngine eng(make_backend(fx.proposed), 2);
  const auto t = *eng.submit(fx.ds.shots.traces[0]);
  eng.drain();
  std::vector<int> out(eng.num_qubits());
  EXPECT_THROW(eng.wait_result(t, {out.data(), 1}), Error);  // Wrong span.
  EXPECT_EQ(eng.wait_result(t, out), ShotStatus::kDone);
  EXPECT_THROW(eng.wait_result(t, out), Error);  // Tickets are one-shot.
  // A recycled slot also reports the stale ticket as consumed.
  StreamingConfig tiny;
  tiny.queue_capacity = 2;
  StreamingEngine small(make_backend(fx.proposed), 1, tiny);
  for (std::size_t s = 0; s < 6; ++s) {
    small.submit(fx.ds.shots.traces[s]);
    small.wait_result(s, out);  // Free the slot so the ring can advance.
  }
  EXPECT_THROW(small.wait_result(1, out), Error);  // Slot owned by 3/5 now.
}

TEST(Streaming, RejectsBadShardSets) {
  const Fixture& fx = Fixture::get();
  EXPECT_THROW(StreamingEngine(std::vector<EngineBackend>{}), Error);
  EXPECT_THROW(StreamingEngine(make_backend(fx.proposed), 0), Error);
  EXPECT_THROW(StreamingEngine(std::vector<EngineBackend>{EngineBackend{}}),
               Error);
  std::vector<EngineBackend> mixed{
      make_backend(fx.proposed),
      EngineBackend("other", fx.proposed.num_qubits() + 1,
                    [](const IqTrace&, InferenceScratch&, std::span<int>) {})};
  EXPECT_THROW(StreamingEngine(std::move(mixed)), Error);
}

/// Sentinel that makes flaky_backend() throw for a frame.
constexpr float kPoison = 12345.0f;

/// Backend for the failure tests: classifies to zeros, but throws when a
/// frame's first I sample carries the poison sentinel. Two qubits, no
/// training needed.
EngineBackend flaky_backend() {
  return EngineBackend(
      "flaky", 2, [](const IqTrace& t, InferenceScratch&, std::span<int> out) {
        MLQR_CHECK_MSG(t.i.empty() || t.i[0] != kPoison,
                       "flaky backend poisoned frame");
        std::fill(out.begin(), out.end(), 0);
      });
}

IqTrace plain_frame() { return IqTrace(32); }

IqTrace poison_frame() {
  IqTrace t(32);
  t.i[0] = kPoison;
  return t;
}

TEST(Streaming, ThrowingBackendSurfacesFromWaitAndEngineSurvives) {
  // A backend exception used to escape the dispatcher jthread ->
  // std::terminate with the batch's slots stuck kInFlight. Now the failure
  // is reported as the affected ticket's kFailed and the dispatcher keeps
  // serving.
  StreamingConfig cfg;
  cfg.batch_max = 1;  // One ticket per micro-batch: failures stay per-shot.
  cfg.deadline_us = 0;
  StreamingEngine eng(flaky_backend(), 2, cfg);
  const auto good0 = *eng.submit(plain_frame());
  const auto bad = *eng.submit(poison_frame());
  const auto good1 = *eng.submit(plain_frame());
  std::vector<int> out(eng.num_qubits());
  EXPECT_EQ(done_labels(eng, good0), (std::vector<int>{0, 0}));
  EXPECT_EQ(eng.wait_result(bad, out), ShotStatus::kFailed);
  EXPECT_THROW(eng.wait_result(bad, out), Error);  // Consumed: one-shot.
  EXPECT_EQ(done_labels(eng, good1), (std::vector<int>{0, 0}));
  // The engine is still alive for later submissions.
  EXPECT_EQ(done_labels(eng, *eng.submit(plain_frame())),
            (std::vector<int>{0, 0}));
  EXPECT_EQ(eng.stats().completed, 4u);
}

TEST(Streaming, BackendFailureStaysPerShotWithinABatch) {
  // Failure granularity is the shot, not the micro-batch: one poisoned
  // frame in a 4-shot batch fails exactly its own ticket, and the other
  // three tickets hand out valid labels.
  StreamingConfig cfg;
  cfg.batch_max = 4;
  cfg.deadline_us = 200000;  // Batch forms by count, not deadline.
  StreamingEngine eng(flaky_backend(), 1, cfg);
  std::vector<StreamingEngine::Ticket> tickets;
  for (int s = 0; s < 4; ++s)
    tickets.push_back(*eng.submit(s == 2 ? poison_frame() : plain_frame()));
  std::vector<int> out(eng.num_qubits());
  for (std::size_t s = 0; s < tickets.size(); ++s) {
    if (s == 2) {
      EXPECT_EQ(eng.wait_result(tickets[s], out), ShotStatus::kFailed);
    } else {
      EXPECT_EQ(done_labels(eng, tickets[s]), (std::vector<int>{0, 0}))
          << "shot " << s;
    }
  }
  // The next (clean) batch classifies normally.
  EXPECT_EQ(done_labels(eng, *eng.submit(plain_frame())),
            (std::vector<int>{0, 0}));
  EXPECT_EQ(eng.stats().batches, 2u);
  EXPECT_EQ(eng.stats().failed, 1u);
}

TEST(Streaming, DrainSurfacesFailuresUntilTicketsAreConsumed) {
  StreamingConfig cfg;
  cfg.batch_max = 1;
  cfg.deadline_us = 0;
  StreamingEngine eng(flaky_backend(), 1, cfg);
  const auto good = *eng.submit(plain_frame());
  const auto bad = *eng.submit(poison_frame());
  // drain() carries the failure details: the backend's own exception.
  EXPECT_THROW(
      {
        try {
          eng.drain();
        } catch (const Error& e) {
          EXPECT_NE(std::string(e.what()).find("poisoned frame"),
                    std::string::npos);
          throw;
        }
      },
      Error);
  EXPECT_THROW(eng.drain(), Error);  // Still unconsumed: drain keeps flagging.
  EXPECT_EQ(done_labels(eng, good), (std::vector<int>{0, 0}));
  std::vector<int> out(eng.num_qubits());
  EXPECT_EQ(eng.wait_result(bad, out), ShotStatus::kFailed);
  EXPECT_NO_THROW(eng.drain());  // All failures delivered: quiet again.
}

TEST(Streaming, FailuresUnderBackpressureNeitherDeadlockNorLeakSlots) {
  // A tiny ring forces submit() to block on slots held by failed tickets;
  // waits must free them (and count exactly the poisoned shots as
  // failures) or the producer would hang forever.
  StreamingConfig cfg;
  cfg.queue_capacity = 2;
  cfg.batch_max = 1;
  cfg.deadline_us = 0;
  StreamingEngine eng(flaky_backend(), 2, cfg);
  constexpr std::size_t kShots = 24;
  std::jthread producer([&] {
    for (std::size_t s = 0; s < kShots; ++s)
      eng.submit(s % 3 == 0 ? poison_frame() : plain_frame());
  });
  std::size_t failures = 0;
  std::vector<int> out(eng.num_qubits());
  for (std::size_t s = 0; s < kShots; ++s)
    if (eng.wait_result(s, out) == ShotStatus::kFailed) ++failures;
  EXPECT_EQ(failures, kShots / 3);
  EXPECT_EQ(eng.stats().completed, kShots);
  EXPECT_NO_THROW(eng.drain());
}

TEST(Streaming, DestructorDrainsOutstandingWork) {
  // Submit without waiting, destroy immediately: the dispatcher must flush
  // the ring before join (no hang, no sanitizer complaint).
  const Fixture& fx = Fixture::get();
  StreamingConfig cfg;
  cfg.batch_max = 512;       // Would never fill on its own.
  cfg.deadline_us = 100000;  // Nor hit the deadline within the test.
  StreamingEngine eng(make_backend(fx.proposed), 2, cfg);
  for (std::size_t s = 0; s < 20; ++s) eng.submit(fx.ds.shots.traces[s]);
}

// ---------------------------------------------------------------------------
// Admission control, shedding, and shard-health machinery.

/// Two-semaphore gate: `started` reports that a classify call reached the
/// backend, `go` releases it. Lets tests hold the dispatcher mid-batch at a
/// deterministic point.
struct Gate {
  std::binary_semaphore started{0};
  std::binary_semaphore go{0};
};

/// Backend whose every classify call signals `started`, blocks on `go`,
/// then writes zeros. Two qubits.
EngineBackend gated_backend(std::shared_ptr<Gate> gate) {
  return EngineBackend(
      "gated", 2,
      [gate](const IqTrace&, InferenceScratch&, std::span<int> out) {
        gate->started.release();
        gate->go.acquire();
        std::fill(out.begin(), out.end(), 0);
      });
}

/// Backend that classifies every shot to the same label. Two qubits.
EngineBackend const_backend(std::string name, int label) {
  return EngineBackend(
      std::move(name), 2,
      [label](const IqTrace&, InferenceScratch&, std::span<int> out) {
        std::fill(out.begin(), out.end(), label);
      });
}

/// Backend that always throws — the shard-went-bad case.
EngineBackend always_throw_backend() {
  return EngineBackend(
      "bad", 2, [](const IqTrace&, InferenceScratch&, std::span<int>) {
        throw Error("always fails");
      });
}

/// Backend that throws while *fail is set, classifies to `label` otherwise.
EngineBackend controllable_backend(std::shared_ptr<std::atomic<bool>> fail,
                                   int label) {
  return EngineBackend(
      "controllable", 2,
      [fail, label](const IqTrace&, InferenceScratch&, std::span<int> out) {
        if (fail->load()) throw Error("controlled failure");
        std::fill(out.begin(), out.end(), label);
      });
}

/// Shots each classify arm of a spy_backend served.
struct ArmCounts {
  std::atomic<std::size_t> batch{0};
  std::atomic<std::size_t> per_shot{0};
  std::atomic<bool> held{false};  ///< The gate has held one call.
};

/// Batch-capable spy over a trained design: both arms forward to `p` and
/// count their shots in `counts`. The first per-shot call holds on `gate`
/// (see Gate), so a test can queue a micro-batch behind it.
EngineBackend spy_backend(const ProposedDiscriminator& p,
                          std::shared_ptr<ArmCounts> counts,
                          std::shared_ptr<Gate> gate) {
  return EngineBackend(
      "spy", p.num_qubits(),
      [&p, counts, gate](const IqTrace& t, InferenceScratch& s,
                         std::span<int> out) {
        if (!counts->held.exchange(true)) {
          gate->started.release();
          gate->go.acquire();
        }
        ++counts->per_shot;
        p.classify_into(t, s, out);
      },
      [&p, counts](std::size_t lo, std::size_t hi, const ShotFrameAt& frame_at,
                   InferenceScratch& s, const ShotLabelsAt& labels_at) {
        counts->batch += hi - lo;
        p.classify_batch_into(lo, hi, frame_at, s, labels_at);
      });
}

TEST(Streaming, InterleavedKeysTakeTheBatchedPathPerShard) {
  // Two keyed feedlines arrive interleaved, so no two neighbouring shots
  // of the micro-batch share a shard. The dispatcher must still hand each
  // shard its shots as one run, or every shot takes the per-shot arm.
  const Fixture& fx = Fixture::get();
  auto counts = std::make_shared<ArmCounts>();
  auto gate = std::make_shared<Gate>();
  constexpr std::size_t kBatch = 64;
  StreamingConfig cfg;
  cfg.queue_capacity = 2 * kBatch;
  cfg.batch_max = kBatch;
  cfg.deadline_us = 0;
  cfg.engine.threads = 1;
  const EngineBackend spy = spy_backend(fx.proposed, counts, gate);
  StreamingEngine eng(spy, 2, cfg);
  const std::vector<IqTrace>& traces = fx.ds.shots.traces;
  // The held shot keeps the dispatcher busy while the batch queues up.
  const auto held = *eng.submit(traces[0], {.key = 0});
  ASSERT_TRUE(gate->started.try_acquire_for(std::chrono::seconds(30)));
  // A swap racing the held batch: the dispatcher yields to it between
  // batches, and the swapped-in copy serves (and counts) the same way.
  std::jthread swapper([&] { eng.swap_shard(1, spy); });
  std::vector<StreamingEngine::Ticket> tickets;
  std::vector<std::size_t> frame_of;
  for (std::size_t i = 0; i < kBatch; ++i) {
    // A stride through the dataset mixes the prepared states.
    frame_of.push_back((i * 37 + 1) % traces.size());
    tickets.push_back(*eng.submit(traces[frame_of.back()], {.key = i}));
  }
  gate->go.release();
  swapper.join();
  InferenceScratch scratch;
  std::vector<int> want(eng.num_qubits());
  fx.proposed.classify_into(traces[0], scratch, want);
  EXPECT_EQ(done_labels(eng, held), want) << "held ticket";
  for (std::size_t i = 0; i < kBatch; ++i) {
    fx.proposed.classify_into(traces[frame_of[i]], scratch, want);
    EXPECT_EQ(done_labels(eng, tickets[i]), want) << "ticket " << i;
  }
  // The held shot was a batch of one; the queued shots formed one more.
  EXPECT_EQ(eng.stats().batches, 2u);
  EXPECT_EQ(counts->batch.load(), kBatch);
  EXPECT_EQ(counts->per_shot.load(), 1u);
}

TEST(Streaming, TimedSubmitRejectsWhileRingStaysFull) {
  StreamingConfig cfg;
  cfg.queue_capacity = 2;
  cfg.batch_max = 2;
  cfg.deadline_us = 0;
  StreamingEngine eng(flaky_backend(), 1, cfg);
  const auto t0 = *eng.submit(plain_frame());
  const auto t1 = *eng.submit(plain_frame());
  // Both slots stay occupied (queued / in-flight / done) until a wait
  // consumes one — admission must reject, not block: a zero timeout tries
  // once, a positive one gives up when it expires.
  const SubmitOptions try_once{.timeout = std::chrono::microseconds(0)};
  EXPECT_FALSE(eng.submit(plain_frame(), try_once).has_value());
  EXPECT_FALSE(
      eng.submit(plain_frame(), {.timeout = std::chrono::microseconds(2000)})
          .has_value());
  std::vector<int> out(eng.num_qubits());
  EXPECT_EQ(eng.wait_result(t0, out), ShotStatus::kDone);
  const auto t2 = eng.submit(plain_frame(), try_once);
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(*t2, t1 + 1);
  EXPECT_EQ(eng.wait_result(t1, out), ShotStatus::kDone);
  EXPECT_EQ(eng.wait_result(*t2, out), ShotStatus::kDone);
  const StreamingStats st = eng.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.completed, 3u);
}

TEST(Streaming, WaitOnProvablyUnsatisfiableTicketThrows) {
  // A ticket >= stats().submitted + capacity cannot resolve before the
  // caller itself deadlocks, so wait_result() refuses it up front; timed
  // wait_for() is the sanctioned way to poll a speculative ticket.
  StreamingConfig cfg;
  cfg.queue_capacity = 4;
  StreamingEngine eng(flaky_backend(), 1, cfg);
  std::vector<int> out(eng.num_qubits());
  EXPECT_THROW(eng.wait_result(4, out), Error);
  EXPECT_EQ(eng.wait_for(4, out, std::chrono::microseconds(1000)),
            ShotStatus::kTimedOut);
  const auto t0 = *eng.submit(plain_frame());  // Frontier moves with submits.
  EXPECT_THROW(eng.wait_result(5, out), Error);
  EXPECT_EQ(eng.wait_result(t0, out), ShotStatus::kDone);
}

TEST(Streaming, WaitForTimesOutWithoutConsumingTheTicket) {
  auto gate = std::make_shared<Gate>();
  StreamingConfig cfg;
  cfg.batch_max = 1;
  cfg.deadline_us = 0;
  StreamingEngine eng(gated_backend(gate), 1, cfg);
  const auto t0 = *eng.submit(plain_frame());
  std::vector<int> out(eng.num_qubits());
  EXPECT_EQ(eng.wait_for(t0, out, std::chrono::microseconds(1000)),
            ShotStatus::kTimedOut);
  gate->started.acquire();
  gate->go.release();
  // Timed out above without consuming: the same ticket still resolves.
  EXPECT_EQ(eng.wait_for(t0, out, std::chrono::microseconds(2000000)),
            ShotStatus::kDone);
  EXPECT_EQ(out, (std::vector<int>{0, 0}));
  EXPECT_THROW(eng.wait_result(t0, out), Error);  // Consumed: one-shot.
}

TEST(Streaming, MaxTimeoutBlocksWithoutADeadline) {
  // microseconds::max() is the natural "forever", but now() + max()
  // overflows the clock (UB, in practice a deadline in the past: the timed
  // submit would reject and wait_for time out at once). It must block with
  // no deadline instead. The ring holds one shot and the gated backend
  // keeps each shot in flight for a few ms, so both calls really wait.
  auto gate = std::make_shared<Gate>();
  StreamingConfig cfg;
  cfg.queue_capacity = 1;
  cfg.batch_max = 1;
  cfg.deadline_us = 0;
  StreamingEngine eng(gated_backend(gate), 1, cfg);
  const auto forever = std::chrono::microseconds::max();
  const auto t0 = *eng.submit(plain_frame());
  std::jthread releaser([&] {
    // t0: hold it in flight, then consume it — that frees the ring's only
    // slot for the timed submit.
    gate->started.acquire();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    gate->go.release();
    std::vector<int> out0(2);
    EXPECT_EQ(eng.wait_result(t0, out0), ShotStatus::kDone);
    // t1: hold it in flight too, so wait_for really waits. Bounded, so a
    // rejected submit fails the test instead of hanging it.
    (void)gate->started.try_acquire_for(std::chrono::seconds(2));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    gate->go.release();
  });
  const auto t1 = eng.submit(plain_frame(), {.timeout = forever});
  ASSERT_TRUE(t1.has_value());
  std::vector<int> out(eng.num_qubits());
  EXPECT_EQ(eng.wait_for(*t1, out, forever), ShotStatus::kDone);
  EXPECT_EQ(out, (std::vector<int>{0, 0}));
}

TEST(Streaming, OneSubmitOptionsCarriesKeyExpectedLabelsAndTimeout) {
  // Key, reference labels and admission timeout travel together: the key
  // routes (round-robin would put the first shot on shard 0), the
  // expected labels feed shard 1's fidelity monitor, and the timeout
  // turns a full ring into a rejection.
  StreamingConfig cfg;
  cfg.queue_capacity = 2;
  cfg.batch_max = 1;
  cfg.deadline_us = 0;
  cfg.drift.enabled = true;
  cfg.drift.baseline_signal = 1;
  StreamingEngine eng(
      std::vector<EngineBackend>{const_backend("zero", 0),
                                 const_backend("one", 1)},
      cfg);
  const std::vector<int> expected{1, 1};
  const SubmitOptions opts{.key = 3,
                           .expected = expected,
                           .timeout = std::chrono::microseconds(1000)};
  const auto t0 = eng.submit(plain_frame(), opts);
  const auto t1 = eng.submit(plain_frame(), opts);
  ASSERT_TRUE(t0.has_value() && t1.has_value());
  EXPECT_FALSE(eng.submit(plain_frame(), opts).has_value());  // Ring full.
  EXPECT_EQ(done_labels(eng, *t0), (std::vector<int>{1, 1}));  // Shard 1.
  EXPECT_EQ(done_labels(eng, *t1), (std::vector<int>{1, 1}));
  const DriftReport r = eng.drift(1);
  EXPECT_EQ(r.reference, 2u);
  EXPECT_DOUBLE_EQ(r.baseline_fidelity, 1.0);
  EXPECT_EQ(eng.drift(0).samples, 0u);
  const StreamingStats st = eng.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.reference_shots, 2u);
}

TEST(Streaming, StaleFramesShedAndReportViaWaitResult) {
  auto gate = std::make_shared<Gate>();
  StreamingConfig cfg;
  cfg.batch_max = 1;
  cfg.deadline_us = 0;
  // Far above any dispatcher wake-up, so t0 is always claimed fresh: a
  // shed t0 would never reach the gate and the test would block forever.
  cfg.shot_deadline_us = 100000;
  StreamingEngine eng(gated_backend(gate), 1, cfg);
  const auto t0 = *eng.submit(plain_frame());
  gate->started.acquire();  // t0 claimed fresh; its batch now sits blocked.
  const auto t1 = *eng.submit(plain_frame());
  const auto t2 = *eng.submit(plain_frame());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));  // t1/t2 stale.
  gate->go.release();
  std::vector<int> out(eng.num_qubits());
  EXPECT_EQ(eng.wait_result(t0, out), ShotStatus::kDone);
  EXPECT_EQ(out, (std::vector<int>{0, 0}));
  EXPECT_EQ(eng.wait_result(t1, out), ShotStatus::kShed);
  EXPECT_EQ(eng.wait_result(t2, out), ShotStatus::kShed);
  const StreamingStats st = eng.stats();
  EXPECT_EQ(st.shed, 2u);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_NO_THROW(eng.drain());  // Shedding is not an engine failure.
}

TEST(Streaming, CircuitBreakerQuarantinesReroutesAndSwapResets) {
  StreamingConfig cfg;
  cfg.batch_max = 1;
  cfg.deadline_us = 0;
  cfg.quarantine_after = 2;
  cfg.probe_backoff_us = 3600000000ULL;  // ~1 h: no probes during the test.
  std::vector<EngineBackend> shards{always_throw_backend(),
                                    const_backend("one", 1)};
  StreamingEngine eng(std::move(shards), cfg);
  std::vector<int> out(eng.num_qubits());
  // Two consecutive failures trip shard 0's breaker.
  const SubmitOptions to0{.key = 0};
  EXPECT_EQ(eng.wait_result(*eng.submit(plain_frame(), to0), out),
            ShotStatus::kFailed);
  EXPECT_EQ(eng.shard_health(0), ShardHealth::kHealthy);
  EXPECT_EQ(eng.wait_result(*eng.submit(plain_frame(), to0), out),
            ShotStatus::kFailed);
  EXPECT_EQ(eng.shard_health(0), ShardHealth::kQuarantined);
  EXPECT_EQ(eng.shard_health(1), ShardHealth::kHealthy);
  // The very next shard-0 shot serves on shard 1 (within one micro-batch).
  EXPECT_EQ(done_labels(eng, *eng.submit(plain_frame(), to0)),
            (std::vector<int>{1, 1}));
  const StreamingStats mid = eng.stats();
  EXPECT_EQ(mid.failed, 2u);
  EXPECT_EQ(mid.quarantines, 1u);
  EXPECT_EQ(mid.rerouted, 1u);
  EXPECT_EQ(mid.shards_quarantined, 1u);
  // swap_shard installs a fresh calibration and resets the breaker.
  eng.swap_shard(0, const_backend("two", 2));
  EXPECT_EQ(eng.shard_health(0), ShardHealth::kHealthy);
  EXPECT_EQ(done_labels(eng, *eng.submit(plain_frame(), to0)),
            (std::vector<int>{2, 2}));
  EXPECT_EQ(eng.stats().rerouted, 1u);  // No further diversions.
}

TEST(Streaming, HalfOpenProbeReadmitsRecoveredShard) {
  auto fail = std::make_shared<std::atomic<bool>>(true);
  StreamingConfig cfg;
  cfg.batch_max = 1;
  cfg.deadline_us = 0;
  cfg.quarantine_after = 1;
  cfg.probe_backoff_us = 0;  // Probe eligible at the very next claim.
  std::vector<EngineBackend> shards{controllable_backend(fail, 0),
                                    const_backend("one", 1)};
  StreamingEngine eng(std::move(shards), cfg);
  std::vector<int> out(eng.num_qubits());
  const SubmitOptions to0{.key = 0};
  EXPECT_EQ(eng.wait_result(*eng.submit(plain_frame(), to0), out),
            ShotStatus::kFailed);
  EXPECT_EQ(eng.shard_health(0), ShardHealth::kQuarantined);
  fail->store(false);
  // The next shard-0 shot routes back as a half-open probe; its success
  // re-admits the shard.
  EXPECT_EQ(done_labels(eng, *eng.submit(plain_frame(), to0)),
            (std::vector<int>{0, 0}));
  EXPECT_EQ(eng.shard_health(0), ShardHealth::kHealthy);
  const StreamingStats st = eng.stats();
  EXPECT_GE(st.probes, 1u);
  EXPECT_EQ(st.recoveries, 1u);
  EXPECT_EQ(st.shards_quarantined, 0u);
}

TEST(Streaming, FallbackBackendServesWhenNoHealthyShardRemains) {
  StreamingConfig cfg;
  cfg.batch_max = 1;
  cfg.deadline_us = 0;
  cfg.quarantine_after = 1;
  cfg.probe_backoff_us = 3600000000ULL;
  cfg.fallback = const_backend("fallback", 3);
  StreamingEngine eng(always_throw_backend(), 1, cfg);
  std::vector<int> out(eng.num_qubits());
  EXPECT_EQ(eng.wait_result(*eng.submit(plain_frame()), out),
            ShotStatus::kFailed);
  EXPECT_EQ(eng.shard_health(0), ShardHealth::kQuarantined);
  EXPECT_EQ(done_labels(eng, *eng.submit(plain_frame())),
            (std::vector<int>{3, 3}));
  // Fallback service neither fails nor recovers the quarantined shard.
  EXPECT_EQ(eng.shard_health(0), ShardHealth::kQuarantined);
  const StreamingStats st = eng.stats();
  EXPECT_EQ(st.rerouted, 1u);
  EXPECT_EQ(st.recoveries, 0u);
}

TEST(Streaming, AllQuarantinedWithoutFallbackStillResolvesEveryTicket) {
  auto fail = std::make_shared<std::atomic<bool>>(true);
  StreamingConfig cfg;
  cfg.batch_max = 1;
  cfg.deadline_us = 0;
  cfg.quarantine_after = 1;
  cfg.probe_backoff_us = 3600000000ULL;  // No probes: last-resort path only.
  StreamingEngine eng(controllable_backend(fail, 7), 1, cfg);
  std::vector<int> out(eng.num_qubits());
  EXPECT_EQ(eng.wait_result(*eng.submit(plain_frame()), out),
            ShotStatus::kFailed);
  EXPECT_EQ(eng.shard_health(0), ShardHealth::kQuarantined);
  // Still failing: the last-resort shot fails too, but the ticket resolves.
  EXPECT_EQ(eng.wait_result(*eng.submit(plain_frame()), out),
            ShotStatus::kFailed);
  // Recovered: any success on a quarantined shard re-admits it.
  fail->store(false);
  EXPECT_EQ(done_labels(eng, *eng.submit(plain_frame())),
            (std::vector<int>{7, 7}));
  EXPECT_EQ(eng.shard_health(0), ShardHealth::kHealthy);
  EXPECT_EQ(eng.stats().recoveries, 1u);
}

TEST(Streaming, ResilienceKnobsOnNoFaultsStaysBitIdentical) {
  // Shedding + breaker + fallback all enabled, but nothing faults and
  // nothing goes stale: labels must stay bit-identical to the synchronous
  // path and every resilience counter must stay zero.
  const Fixture& fx = Fixture::get();
  StreamingConfig cfg;
  cfg.queue_capacity = fx.ds.shots.size();
  cfg.batch_max = 32;
  cfg.shot_deadline_us = 3600000000ULL;  // ~1 h: never sheds in practice.
  cfg.quarantine_after = 3;
  cfg.probe_backoff_us = 1000;
  cfg.fallback = make_backend(fx.proposed);
  StreamingEngine eng(make_backend(fx.proposed), 2, cfg);
  EXPECT_EQ(stream_all(eng, fx.ds.shots.traces), fx.sync_labels);
  const StreamingStats st = eng.stats();
  EXPECT_EQ(st.shed, 0u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.rerouted, 0u);
  EXPECT_EQ(st.quarantines, 0u);
  EXPECT_EQ(st.probes, 0u);
  EXPECT_EQ(st.submitted, st.completed);
}

TEST(Streaming, DestructorReleasesUnconsumedFailedTickets) {
  // Destroying the engine with kDone-with-error slots never consumed must
  // not hang, leak the stored exceptions, or double-release (ASan leg).
  StreamingConfig cfg;
  cfg.batch_max = 1;
  cfg.deadline_us = 0;
  StreamingEngine eng(flaky_backend(), 2, cfg);
  for (int s = 0; s < 6; ++s)
    eng.submit(s % 2 ? poison_frame() : plain_frame());
}

TEST(Streaming, DestructorReleasesUnconsumedShedTickets) {
  auto gate = std::make_shared<Gate>();
  StreamingConfig cfg;
  cfg.batch_max = 1;
  cfg.deadline_us = 0;
  cfg.shot_deadline_us = 100000;  // t0 claimed fresh (see above).
  StreamingEngine eng(gated_backend(gate), 1, cfg);
  eng.submit(plain_frame());
  gate->started.acquire();
  eng.submit(plain_frame());
  eng.submit(plain_frame());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  gate->go.release();
  // Two tickets shed at destructor-drain time, none ever waited.
}

TEST(Streaming, DrainConcurrentWithQuarantineTransitions) {
  // drain() hammered while breakers trip and reroute underneath it: no
  // deadlock, and afterwards every ticket resolves exactly once.
  StreamingConfig cfg;
  cfg.queue_capacity = 256;
  cfg.batch_max = 4;
  cfg.deadline_us = 0;
  cfg.quarantine_after = 2;
  cfg.probe_backoff_us = 100;
  std::vector<EngineBackend> shards{flaky_backend(), flaky_backend()};
  StreamingEngine eng(std::move(shards), cfg);
  constexpr std::size_t kShots = 96;
  std::jthread producer([&] {
    // Even tickets are poisoned and round-robin onto shard 0: its breaker
    // trips, traffic reroutes, probes fail and retry — sustained churn.
    for (std::size_t s = 0; s < kShots; ++s)
      eng.submit(s % 2 == 0 ? poison_frame() : plain_frame());
  });
  for (int i = 0; i < 50; ++i) {
    try {
      eng.drain();
    } catch (const Error&) {
      // Unconsumed failures surface through drain by contract.
    }
  }
  producer.join();
  std::size_t done = 0;
  std::size_t failed = 0;
  std::vector<int> out(eng.num_qubits());
  for (std::size_t s = 0; s < kShots; ++s) {
    switch (eng.wait_result(s, out)) {
      case ShotStatus::kDone:
        ++done;
        break;
      case ShotStatus::kFailed:
        ++failed;
        break;
      default:
        FAIL() << "unexpected status for ticket " << s;
    }
  }
  EXPECT_EQ(done, kShots / 2);
  EXPECT_EQ(failed, kShots / 2);  // Exactly the poisoned frames, wherever
                                  // routing sent them.
  EXPECT_EQ(eng.stats().completed, kShots);
  EXPECT_GE(eng.stats().quarantines, 1u);
  EXPECT_NO_THROW(eng.drain());
}

// ---------------------------------------------------------------------------
// Spin-then-park hand-offs (the wait policy in pipeline/streaming_engine.h).
// A lost wake-up must fail these tests, not hang them (see
// StreamingHandOff).

using SteadyClock = std::chrono::steady_clock;

/// Comfortably past the spin window: a waiter has parked by then.
constexpr auto kPastSpin = StreamingEngine::kSpinWindow * 20;

/// Bound on any single hand-off; a correct engine takes microseconds.
constexpr auto kHandOffBound = std::chrono::seconds(5);

/// The hand-off tests. Their waits are timed, and a watchdog aborts the
/// binary if a test body (its engine destructors included) runs past
/// kWatchdog: a destructor or swap_shard has no timeout of its own, so a
/// lost wake-up there would otherwise hang the suite.
class StreamingHandOff : public ::testing::Test {
 protected:
  static constexpr auto kWatchdog = std::chrono::seconds(120);

  void TearDown() override {
    {
      std::lock_guard lock(mu_);
      finished_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool finished_ = false;
  std::jthread watchdog_{[this] {
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, kWatchdog, [this] { return finished_; })) {
      std::fprintf(stderr, "hand-off test hung: a wake-up was lost\n");
      std::abort();
    }
  }};
};

/// The fastest of `trials` runs of `timed` (which returns its own
/// duration): a correct engine meets the bounds below on some run even on
/// a busy host, while a waiter that rides out the spin window misses them
/// on every run.
template <typename Timed>
SteadyClock::duration fastest_of(int trials, Timed&& timed) {
  SteadyClock::duration best = SteadyClock::duration::max();
  for (int i = 0; i < trials; ++i) best = std::min(best, timed());
  return best;
}

TEST_F(StreamingHandOff, ParkedDispatcherWakesOnSubmit) {
  // Nothing waits the tickets (a wait would flush them and wake the
  // dispatcher itself), so each shot completes only if the parked
  // dispatcher hears its submit.
  StreamingConfig cfg;
  cfg.deadline_us = 0;
  StreamingEngine eng(const_backend("c", 3), 1, cfg);
  for (std::uint64_t shot = 1; shot <= 3; ++shot) {
    std::this_thread::sleep_for(kPastSpin);
    eng.submit(plain_frame());
    const auto give_up = SteadyClock::now() + kHandOffBound;
    while (eng.stats().completed < shot && SteadyClock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    ASSERT_EQ(eng.stats().completed, shot) << "submit lost its wake-up";
  }
  std::vector<int> out(eng.num_qubits());
  for (StreamingEngine::Ticket t = 0; t < 3; ++t) {
    EXPECT_EQ(eng.wait_for(t, out, kHandOffBound), ShotStatus::kDone);
    EXPECT_EQ(out, (std::vector<int>{3, 3}));
  }
}

TEST_F(StreamingHandOff, ParkedWaiterWakesOnBatchCompletion) {
  auto gate = std::make_shared<Gate>();
  StreamingConfig cfg;
  cfg.deadline_us = 0;
  StreamingEngine eng(gated_backend(gate), 1, cfg);
  std::vector<int> out(eng.num_qubits());
  for (int round = 0; round < 3; ++round) {
    const auto t = *eng.submit(plain_frame());
    ASSERT_TRUE(gate->started.try_acquire_for(kHandOffBound));
    std::jthread releaser([&] {
      std::this_thread::sleep_for(kPastSpin);
      gate->go.release();
    });
    // A waiter that missed the wake-up still finds the shot done when its
    // timeout re-checks, so the time it took is what tells.
    const auto start = SteadyClock::now();
    EXPECT_EQ(eng.wait_for(t, out, kHandOffBound), ShotStatus::kDone);
    EXPECT_LT(SteadyClock::now() - start, kHandOffBound / 2)
        << "batch completion lost its wake-up";
  }
}

TEST_F(StreamingHandOff, ShortTimedWaitsStopPollingAtTheirDeadline) {
  // The shot is held in flight, so nothing notifies: each timed wait ends
  // only at its own deadline. A wait that polled on to the end of the spin
  // window would make 100 of them take 100 windows.
  auto gate = std::make_shared<Gate>();
  StreamingEngine eng(gated_backend(gate), 1);
  const auto t = *eng.submit(plain_frame());
  ASSERT_TRUE(gate->started.try_acquire_for(kHandOffBound));
  std::vector<int> out(eng.num_qubits());
  for (const auto timeout :
       {std::chrono::microseconds(1), std::chrono::microseconds(0)}) {
    std::size_t timed_out = 0;
    const auto took = fastest_of(10, [&] {
      const auto start = SteadyClock::now();
      for (int i = 0; i < 100; ++i)
        timed_out += eng.wait_for(t, out, timeout) == ShotStatus::kTimedOut;
      return SteadyClock::now() - start;
    });
    EXPECT_EQ(timed_out, 1000u);
    EXPECT_LT(took, 100 * StreamingEngine::kSpinWindow / 2)
        << "timeout " << timeout.count() << " us";
  }
  gate->go.release();
  EXPECT_EQ(eng.wait_for(t, out, kHandOffBound), ShotStatus::kDone);
}

TEST_F(StreamingHandOff, IdleDispatcherStopsWithoutRidingOutTheSpinWindow) {
  // A dispatcher that rode out its spin window would make the destructor
  // take a whole window longer. The bound is half a window, or the cost of
  // destroying an engine whose dispatcher has already parked (wake it, join
  // it) where that is larger, as it is under sanitizers.
  StreamingConfig cfg;
  cfg.queue_capacity = 4;
  cfg.deadline_us = 0;
  const EngineBackend backend = const_backend("c", 1);
  const auto destroy = [&](bool let_it_park) {
    auto eng = std::make_unique<StreamingEngine>(backend, 1, cfg);
    eng->submit(plain_frame());
    // Busy-poll rather than wait: a wait of our own would poll the spin
    // window away too. The dispatcher left the lock that completed the
    // shot by entering its wait, so from here on it is polling for work.
    const auto give_up = SteadyClock::now() + kHandOffBound;
    while (eng->stats().completed == 0 && SteadyClock::now() < give_up) {
    }
    EXPECT_EQ(eng->stats().completed, 1u);
    if (let_it_park) std::this_thread::sleep_for(kPastSpin);
    const auto start = SteadyClock::now();
    eng.reset();
    return SteadyClock::now() - start;
  };
  const auto parked = fastest_of(20, [&] { return destroy(true); });
  const auto polling = fastest_of(20, [&] { return destroy(false); });
  EXPECT_LT(polling, std::max<SteadyClock::duration>(
                         parked, StreamingEngine::kSpinWindow / 2))
      << "parked " << std::chrono::duration<double, std::micro>(parked).count()
      << " us, polling "
      << std::chrono::duration<double, std::micro>(polling).count() << " us";
}

TEST_F(StreamingHandOff, SwapShardOnAnIdleDispatcherReturnsAtOnce) {
  StreamingConfig cfg;
  cfg.deadline_us = 0;
  StreamingEngine eng(const_backend("old", 1), 1, cfg);
  const EngineBackend fresh = const_backend("new", 2);
  std::vector<int> out(eng.num_qubits());
  const auto took = fastest_of(20, [&] {
    EXPECT_EQ(eng.wait_for(*eng.submit(plain_frame()), out, kHandOffBound),
              ShotStatus::kDone);
    const auto start = SteadyClock::now();
    eng.swap_shard(0, fresh);
    return SteadyClock::now() - start;
  });
  EXPECT_LT(took, StreamingEngine::kSpinWindow / 2);
  // The swap released the dispatcher's gate: it serves the new backend.
  EXPECT_EQ(eng.wait_for(*eng.submit(plain_frame()), out, kHandOffBound),
            ShotStatus::kDone);
  EXPECT_EQ(out, (std::vector<int>{2, 2}));
}

}  // namespace
}  // namespace mlqr
