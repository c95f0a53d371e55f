// Heap allocations on the serving hot paths, counted by a replacement
// global operator new: once warm, a single-shot StreamingEngine micro-batch,
// a one-worker micro-batch regrouped across two shards and an inline
// EngineCore batch allocate nothing, and a ReadoutEngine batch allocates
// only the label buffer it returns.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "discrim/proposed.h"
#include "pipeline/readout_engine.h"
#include "pipeline/streaming_engine.h"
#include "readout/dataset.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every allocating form the program can reach funnels into counted_alloc
// (the nothrow forms call these); the deletes pair with malloc.
void* operator new(std::size_t n) { return counted_alloc(n, 1); }
void* operator new[](std::size_t n) { return counted_alloc(n, 1); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mlqr {
namespace {

/// A small trained design, so the counts cover a real classify path.
struct Fixture {
  ReadoutDataset ds;
  ProposedDiscriminator proposed;

  static const Fixture& get() {
    static const Fixture fx = [] {
      DatasetConfig cfg;
      cfg.chip = ChipProfile::test_two_qubit();
      cfg.shots_per_basis_state = 60;
      cfg.seed = 20261017;
      ReadoutDataset ds = generate_dataset(cfg);
      ProposedConfig pcfg;
      pcfg.trainer.epochs = 2;
      ProposedDiscriminator p = ProposedDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip, pcfg);
      return Fixture{std::move(ds), std::move(p)};
    }();
    return fx;
  }
};

/// Allocations made by `fn`, on any thread, while it runs.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(Allocations, CounterSeesAllocations) {
  // Guards the zero counts below against a counter that is not hooked in.
  // `kept` outlives the lambda, so the allocation cannot be elided.
  static std::vector<int> kept;
  std::vector<int>().swap(kept);
  EXPECT_EQ(allocations_during([] { kept.resize(1000); }), 1u);
}

TEST(Allocations, StreamingSingleShotBatchesAllocateNothingOnceWarm) {
  const Fixture& fx = Fixture::get();
  StreamingConfig cfg;
  cfg.queue_capacity = 16;
  StreamingEngine eng(make_backend(fx.proposed), 2, cfg);
  std::vector<int> out(eng.num_qubits());
  const auto& traces = fx.ds.shots.traces;
  // Submit-then-wait keeps one shot in the ring, so every micro-batch is a
  // single shot. Two laps warm every ring slot, both shards' scratch and
  // the dispatcher.
  std::size_t next = 0;
  const auto one_shot = [&] {
    const StreamingEngine::Ticket t =
        *eng.submit(traces[next++ % traces.size()]);
    return eng.wait_result(t, out);
  };
  for (std::size_t i = 0; i < 2 * cfg.queue_capacity; ++i)
    ASSERT_EQ(one_shot(), ShotStatus::kDone);

  std::size_t not_done = 0;
  const std::size_t n = allocations_during([&] {
    for (std::size_t i = 0; i < 100; ++i)
      not_done += one_shot() != ShotStatus::kDone;
  });
  EXPECT_EQ(not_done, 0u);
  EXPECT_EQ(n, 0u) << "allocations over 100 single-shot micro-batches";
  EXPECT_EQ(eng.stats().batches, 2 * cfg.queue_capacity + 100);
}

TEST(Allocations, StreamingGroupedShardBatchesAllocateNothingOnceWarm) {
  // Each round submits one full micro-batch whose keys alternate between
  // two shards, then waits every ticket: the dispatcher regroups the batch
  // into one batched-path run per shard. One worker, since a pool fan-out
  // allocates its Job (see pipeline/streaming_engine.h).
  const Fixture& fx = Fixture::get();
  StreamingConfig cfg;
  cfg.queue_capacity = 32;
  cfg.batch_max = 2 * EngineCore::kMinBatchGroup;
  cfg.deadline_us = 1000000;  // Only a full batch (or a wait) dispatches.
  cfg.engine.threads = 1;
  StreamingEngine eng(make_backend(fx.proposed), 2, cfg);
  std::vector<int> out(eng.num_qubits());
  std::vector<StreamingEngine::Ticket> tickets(cfg.batch_max);
  const auto& traces = fx.ds.shots.traces;
  std::size_t next = 0;
  std::size_t not_done = 0;
  const auto one_batch = [&] {
    for (std::size_t i = 0; i < tickets.size(); ++i)
      tickets[i] = *eng.submit(traces[next++ % traces.size()], {.key = i});
    for (const StreamingEngine::Ticket t : tickets)
      not_done += eng.wait_result(t, out) != ShotStatus::kDone;
  };
  // Two laps warm every ring slot, the worker scratch and the dispatcher.
  const std::size_t warm = 2 * cfg.queue_capacity / cfg.batch_max;
  for (std::size_t i = 0; i < warm; ++i) one_batch();

  const std::size_t n = allocations_during([&] {
    for (std::size_t i = 0; i < 20; ++i) one_batch();
  });
  EXPECT_EQ(not_done, 0u);
  EXPECT_EQ(n, 0u) << "allocations over 20 grouped two-shard micro-batches";
  EXPECT_EQ(eng.stats().batches, warm + 20);
}

TEST(Allocations, InlineEngineCoreBatchAllocatesNothingOnceWarm) {
  // One worker: the batch classifies inline, through the batched path
  // (8 shots reach kMinBatchGroup) and the per-shot path (3 shots).
  const Fixture& fx = Fixture::get();
  const EngineBackend backend = make_backend(fx.proposed);
  const std::size_t nq = backend.num_qubits();
  const auto& traces = fx.ds.shots.traces;
  EngineCore core(EngineConfig{.threads = 1});
  std::vector<int> labels(EngineCore::kMinBatchGroup * nq);
  const auto run = [&](std::size_t n) {
    core.classify(
        n, [&](std::size_t s) -> const IqTrace& { return traces[s]; },
        [&](std::size_t) -> const EngineBackend& { return backend; },
        [&](std::size_t s) -> std::span<int> {
          return {labels.data() + s * nq, nq};
        });
  };
  run(EngineCore::kMinBatchGroup);
  run(3);
  EXPECT_EQ(allocations_during([&] { run(EngineCore::kMinBatchGroup); }),
            0u);
  EXPECT_EQ(allocations_during([&] { run(3); }), 0u);
}

TEST(Allocations, InlineReadoutEngineBatchAllocatesOnlyItsLabels) {
  const Fixture& fx = Fixture::get();
  ReadoutEngine eng(make_backend(fx.proposed), EngineConfig{.threads = 1});
  const std::span<const IqTrace> frames(fx.ds.shots.traces.data(), 3);
  const std::vector<std::size_t> subset = {4, 5, 6};
  eng.process_batch(frames);
  eng.process_batch(fx.ds.shots, subset);
  // The one allocation is EngineBatch::labels, which the caller keeps.
  EXPECT_EQ(allocations_during([&] { eng.process_batch(frames); }), 1u);
  EXPECT_EQ(
      allocations_during([&] { eng.process_batch(fx.ds.shots, subset); }),
      1u);
}

}  // namespace
}  // namespace mlqr
