#include "pipeline/readout_engine.h"

#include <algorithm>

#include "common/error.h"
#include "common/parallel.h"
#include "common/timer.h"

namespace mlqr {

LatencyStats summarize_latency(std::vector<double> micros) {
  LatencyStats stats;
  if (micros.empty()) return stats;
  std::sort(micros.begin(), micros.end());
  stats.count = micros.size();
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(micros.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, micros.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return micros[lo] + frac * (micros[hi] - micros[lo]);
  };
  stats.p50_us = quantile(0.50);
  stats.p99_us = quantile(0.99);
  stats.max_us = micros.back();
  double sum = 0.0;
  for (double m : micros) sum += m;
  stats.mean_us = sum / static_cast<double>(micros.size());
  return stats;
}

void EngineCore::classify(std::size_t n, FrameAt frame_at,
                          BackendAt backend_at, LabelsAt labels_at,
                          std::exception_ptr* errors) {
  if (n == 0) return;
  // Worker budget: the configured cap, shrunk so every worker has at least
  // min_shots_per_thread shots (waking a pool worker for two shots loses).
  std::size_t workers = cfg_.threads ? cfg_.threads : parallel_thread_count();
  const std::size_t per_thread =
      std::max<std::size_t>(cfg_.min_shots_per_thread, 1);
  workers = std::clamp<std::size_t>(workers, 1,
                                    std::max<std::size_t>(n / per_thread, 1));
  if (scratch_.size() < workers) scratch_.resize(workers);

  parallel_for_slots(
      0, n, workers, [&](std::size_t slot, std::size_t lo, std::size_t hi) {
        InferenceScratch& scratch = scratch_[slot];
        const auto run_per_shot = [&](std::size_t b, std::size_t e) {
          for (std::size_t s = b; s < e; ++s) {
            if (errors) {
              try {
                backend_at(s).classify_into(frame_at(s), scratch,
                                            labels_at(s));
              } catch (...) {
                errors[s] = std::current_exception();
              }
            } else {
              backend_at(s).classify_into(frame_at(s), scratch, labels_at(s));
            }
          }
        };

        // Group contiguous runs served by the same backend instance (the
        // BackendAt contract returns stable references, so the address
        // identifies the shard) and push each large-enough group through
        // the batched path. A throwing batch re-runs per-shot so the
        // failure lands on the exact shots: per-shot classify is pure and
        // rewrites every label the batch may have partially written.
        std::size_t s = lo;
        while (s < hi) {
          const EngineBackend& be = backend_at(s);
          std::size_t e = s + 1;
          while (e < hi && &backend_at(e) == &be) ++e;
          if (be.supports_batch() && e - s >= kMinBatchGroup) {
            try {
              // A FunctionRef is two pointers, so these std::function
              // wrappers fit its small buffer and allocate nothing.
              be.classify_batch_into(s, e, ShotFrameAt(frame_at), scratch,
                                     ShotLabelsAt(labels_at));
            } catch (...) {
              if (!errors) throw;
              run_per_shot(s, e);
            }
          } else {
            run_per_shot(s, e);
          }
          s = e;
        }
      });
}

ReadoutEngine::ReadoutEngine(EngineBackend backend, EngineConfig cfg)
    : backend_(std::move(backend)), core_(cfg) {
  MLQR_CHECK_MSG(backend_.valid(), "engine needs a classify backend");
  MLQR_CHECK_MSG(backend_.num_qubits() > 0, "backend reports zero qubits");
}

EngineBatch ReadoutEngine::run(std::size_t n, EngineCore::FrameAt frame_at) {
  const std::size_t n_qubits = backend_.num_qubits();

  EngineBatch batch;
  batch.n_shots = n;
  batch.n_qubits = n_qubits;
  batch.labels.assign(n * n_qubits, 0);
  if (n == 0) return batch;

  int* labels = batch.labels.data();
  Timer wall;
  core_.classify(
      n, frame_at,
      [this](std::size_t) -> const EngineBackend& { return backend_; },
      [labels, n_qubits](std::size_t s) -> std::span<int> {
        return {labels + s * n_qubits, n_qubits};
      });
  batch.wall_seconds = wall.seconds();
  return batch;
}

EngineBatch ReadoutEngine::process_batch(std::span<const IqTrace> frames) {
  return run(frames.size(),
             [frames](std::size_t s) -> const IqTrace& { return frames[s]; });
}

EngineBatch ReadoutEngine::process_batch(
    const ShotSet& shots, std::span<const std::size_t> subset) {
  MLQR_CHECK(shots.n_qubits == backend_.num_qubits());
  // Checked once here: the fan-out below indexes without bounds checks.
  for (const std::size_t s : subset)
    MLQR_CHECK_MSG(s < shots.size(),
                   "subset index " << s << " out of range for "
                                   << shots.size() << " shots");
  return run(subset.size(), [&shots, subset](std::size_t s) -> const IqTrace& {
    return shots.traces[subset[s]];
  });
}

FidelityReport ReadoutEngine::evaluate(const ShotSet& shots,
                                       std::span<const std::size_t> subset) {
  const EngineBatch batch = process_batch(shots, subset);
  FidelityReport report;
  report.per_qubit.resize(shots.n_qubits);
  for (std::size_t s = 0; s < batch.n_shots; ++s) {
    const std::span<const int> assigned = batch.shot_labels(s);
    for (std::size_t q = 0; q < shots.n_qubits; ++q)
      report.per_qubit[q].add(shots.label(subset[s], q), assigned[q]);
  }
  return report;
}

}  // namespace mlqr
