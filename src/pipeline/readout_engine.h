// Batched, multi-threaded streaming readout engine.
//
// The table benches and examples used to drive the layers one shot at a
// time through ad-hoc glue: simulate, demodulate, filter, classify, each
// call allocating its own baseband traces, feature vectors and MLP
// activations. ReadoutEngine is the load-bearing composition instead — it
// puts any trained discriminator (proposed MF+NN, FNN, HERQULES, LDA/QDA)
// behind one process_batch(frames) API, fans shot batches out over the
// persistent common/thread_pool workers, and hands every worker a
// persistent InferenceScratch so the hot loop performs zero heap
// allocations after warm-up. Per-shot classification is pure, so results
// are bit-identical across batch sizes and thread counts
// (tests/test_pipeline.cpp pins this down). The fan-out itself lives in
// EngineCore, which pipeline/streaming_engine.h reuses for asynchronous
// sharded ingest — ReadoutEngine is the synchronous face of the same
// machinery.
#pragma once

#include <exception>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/function_ref.h"
#include "discrim/inference_scratch.h"
#include "discrim/metrics.h"
#include "discrim/shot_set.h"
#include "pipeline/backend_trait.h"
#include "sim/iq.h"

namespace mlqr {

/// Order statistics of per-shot classification latency, in microseconds.
struct LatencyStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
  std::size_t count = 0;
};

/// Summarizes a sample of per-shot latencies (takes a copy: the input is
/// sorted internally). Empty input yields all-zero stats.
LatencyStats summarize_latency(std::vector<double> micros);

struct EngineConfig {
  /// Worker budget per batch; 0 means parallel_thread_count() (which
  /// honours MLQR_THREADS). The effective count never exceeds the batch.
  std::size_t threads = 0;
};

/// One processed batch: per-qubit level assignments for every frame, flat
/// shot-major like ShotSet::labels, plus timing.
struct EngineBatch {
  std::vector<int> labels;  ///< n_shots x n_qubits, shot-major.
  std::size_t n_shots = 0;
  std::size_t n_qubits = 0;
  double wall_seconds = 0.0;

  std::span<const int> shot_labels(std::size_t shot) const {
    return {labels.data() + shot * n_qubits, n_qubits};
  }
  double shots_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(n_shots) / wall_seconds
                              : 0.0;
  }
};

/// Type-erased, scratch-aware discriminator stage. Build one with
/// make_backend(<trained discriminator>); the wrapped object must outlive
/// the backend (non-owning, discriminators are heavy to copy).
class EngineBackend {
 public:
  using ClassifyInto =
      std::function<void(const IqTrace&, InferenceScratch&, std::span<int>)>;
  using ClassifyBatchInto =
      std::function<void(std::size_t, std::size_t, const ShotFrameAt&,
                         InferenceScratch&, const ShotLabelsAt&)>;
  using ClassifyScoredInto =
      std::function<float(const IqTrace&, InferenceScratch&, std::span<int>)>;

  EngineBackend() = default;
  EngineBackend(std::string name, std::size_t n_qubits, ClassifyInto fn,
                ClassifyBatchInto batch_fn = {},
                ClassifyScoredInto scored_fn = {})
      : name_(std::move(name)),
        n_qubits_(n_qubits),
        fn_(std::move(fn)),
        batch_fn_(std::move(batch_fn)),
        scored_fn_(std::move(scored_fn)) {}

  const std::string& name() const { return name_; }
  std::size_t num_qubits() const { return n_qubits_; }
  bool valid() const { return static_cast<bool>(fn_); }
  /// True when the wrapped design exposes the batched path
  /// (BatchedReadoutBackend). EngineCore falls back to per-shot serving
  /// otherwise — same labels, different schedule.
  bool supports_batch() const { return static_cast<bool>(batch_fn_); }
  /// True when the wrapped design reports classification confidence
  /// (ScoredReadoutBackend) — the streaming drift monitors sample this.
  bool supports_scored() const { return static_cast<bool>(scored_fn_); }

  void classify_into(const IqTrace& trace, InferenceScratch& scratch,
                     std::span<int> out) const {
    fn_(trace, scratch, out);
  }

  void classify_batch_into(std::size_t lo, std::size_t hi,
                           const ShotFrameAt& frame_at,
                           InferenceScratch& scratch,
                           const ShotLabelsAt& labels_at) const {
    batch_fn_(lo, hi, frame_at, scratch, labels_at);
  }

  /// classify_into plus a confidence in (0, 1] (the scored contract:
  /// labels bit-identical to classify_into).
  float classify_scored_into(const IqTrace& trace, InferenceScratch& scratch,
                             std::span<int> out) const {
    return scored_fn_(trace, scratch, out);
  }

 private:
  std::string name_;
  std::size_t n_qubits_ = 0;
  ClassifyInto fn_;
  ClassifyBatchInto batch_fn_;
  ClassifyScoredInto scored_fn_;
};

/// Binds a ReadoutBackend reached through `p` into a type-erased
/// EngineBackend: the one place that decides which optional paths
/// (BatchedReadoutBackend, ScoredReadoutBackend) a design exposes. Every
/// lambda captures `p` by value, so the handle sets the lifetime — a raw
/// `const D*` for make_backend, a `shared_ptr<const D>` for the owning
/// BackendSnapshot::backend(). A new design plugs into batching, streaming
/// shards, and swap_shard by satisfying the concept, with no engine-side
/// registration.
template <ReadoutBackend D, typename Ptr>
EngineBackend bind_backend(Ptr p) {
  EngineBackend::ClassifyBatchInto batch_fn;
  if constexpr (BatchedReadoutBackend<D>) {
    batch_fn = [p](std::size_t lo, std::size_t hi,
                   const ShotFrameAt& frame_at, InferenceScratch& s,
                   const ShotLabelsAt& labels_at) {
      p->classify_batch_into(lo, hi, frame_at, s, labels_at);
    };
  }
  EngineBackend::ClassifyScoredInto scored_fn;
  if constexpr (ScoredReadoutBackend<D>) {
    scored_fn = [p](const IqTrace& t, InferenceScratch& s,
                    std::span<int> out) {
      return p->classify_scored_into(t, s, out);
    };
  }
  return EngineBackend(
      p->name(), p->num_qubits(),
      [p](const IqTrace& t, InferenceScratch& s, std::span<int> out) {
        p->classify_into(t, s, out);
      },
      std::move(batch_fn), std::move(scored_fn));
}

/// Wraps any ReadoutBackend in a type-erased EngineBackend. Non-owning:
/// `d` must outlive the result (discriminators are heavy to copy; the
/// snapshot layer's BackendSnapshot::backend() builds the owning variant).
template <ReadoutBackend D>
EngineBackend make_backend(const D& d) {
  return bind_backend<D>(&d);
}

/// The classification machinery shared by the synchronous ReadoutEngine
/// and the asynchronous StreamingEngine: a worker budget, the per-slot
/// InferenceScratch pool, and the parallel_for_slots fan-out over the
/// persistent thread pool. Both engines are thin wrappers: ReadoutEngine
/// binds one backend and a contiguous label buffer, StreamingEngine calls
/// once per serving target of a micro-batch with that target's ring-slot
/// frames and label spans.
class EngineCore {
 public:
  explicit EngineCore(EngineConfig cfg = {}) : cfg_(cfg) {}

  /// Calls smaller than threads * kMinShotsPerThread stay on fewer
  /// workers: waking a pool worker for a couple of shots costs more than
  /// it saves.
  static constexpr std::size_t kMinShotsPerThread = 8;

  /// Worker ranges smaller than this classify per-shot even on a
  /// batch-capable backend: tile setup (gathering the frame pointers,
  /// sizing the feature/label blocks, staging each head's input transposed
  /// into shot lanes) outweighs the batched kernels below it. Measured on
  /// the perfbench 5-qubit design, one thread, avx512-vnni tier on a
  /// 4-vCPU Xeon: batched over per-shot time is 1.48 / 3.30 / 3.00
  /// (float / int16 / int8) at one shot and 0.52 / 0.80 / 0.70 at eight,
  /// so the batched arm starts to win at about 3 shots for float, 5 for
  /// int8 and 6 for int16. 8 clears all three.
  static constexpr std::size_t kMinBatchGroup = 8;

  /// Non-owning accessors, valid for the duration of one classify() call.
  using FrameAt = FunctionRef<const IqTrace&(std::size_t)>;
  using LabelsAt = FunctionRef<std::span<int>(std::size_t)>;

  /// Classifies shots 0..n-1 on `backend`: frame_at(s) gives shot s's
  /// trace, labels_at(s) its destination span. A caller serving several
  /// backends makes one call per backend. Shots fan out over at most the
  /// configured worker budget, shrunk so every worker gets >=
  /// kMinShotsPerThread shots; each worker slot reuses its own scratch.
  /// Once that scratch has grown, a call served by one worker allocates
  /// nothing (tests/test_allocations.cpp pins it); a call fanned out over
  /// the pool allocates the one Job ThreadPool::run shares with its
  /// workers.
  ///
  /// A worker range of at least kMinBatchGroup shots on a batch-capable
  /// backend classifies through the batched path; shorter ranges and
  /// backends without a batch path classify shot by shot. Labels are
  /// bit-identical either way (the BatchedReadoutBackend contract).
  ///
  /// When `errors` is non-null it must point at n entries; a backend that
  /// throws classifying shot s fails only that shot — the exception lands
  /// in errors[s] (workers write disjoint indices, so no synchronization)
  /// and the remaining shots still classify (a throwing batched range is
  /// re-run per-shot to attribute the failure to the exact shots; per-shot
  /// classify is pure, so the overwrite is safe). When null, the first
  /// escaping exception propagates out of classify() as before — the
  /// synchronous ReadoutEngine keeps that contract; the StreamingEngine
  /// dispatcher passes a sink so one faulty shard shot poisons one ticket,
  /// not its whole micro-batch.
  void classify(const EngineBackend& backend, std::size_t n, FrameAt frame_at,
                LabelsAt labels_at, std::exception_ptr* errors = nullptr);

 private:
  EngineConfig cfg_;
  std::vector<InferenceScratch> scratch_;  ///< One slot per worker, reused.
};

/// The streaming engine. Owns its per-worker scratch pool, so an instance
/// is cheap to call repeatedly (batch-of-1 streaming reuses buffers) but
/// must not be shared across threads — create one engine per stream.
class ReadoutEngine {
 public:
  explicit ReadoutEngine(EngineBackend backend, EngineConfig cfg = {});

  const EngineBackend& backend() const { return backend_; }
  std::size_t num_qubits() const { return backend_.num_qubits(); }

  /// Hot path: classify a contiguous batch of multiplexed frames.
  EngineBatch process_batch(std::span<const IqTrace> frames);

  /// Indexed variant over a stored ShotSet — no trace copies. Throws
  /// mlqr::Error, before any shot is classified, on a subset index past
  /// the ShotSet's end.
  EngineBatch process_batch(const ShotSet& shots,
                            std::span<const std::size_t> subset);

  /// Classifies the subset and scores it against the ShotSet's ground-truth
  /// labels — the one fidelity evaluator every design and bench uses.
  FidelityReport evaluate(const ShotSet& shots,
                          std::span<const std::size_t> subset);

 private:
  /// Shared fan-out: frame_at(i) must be valid for i in [0, n).
  EngineBatch run(std::size_t n, EngineCore::FrameAt frame_at);

  EngineBackend backend_;
  EngineCore core_;
};

}  // namespace mlqr
