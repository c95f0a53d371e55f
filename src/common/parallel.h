// Minimal data-parallel helpers used by the trainers, the trace generator
// and the streaming engine.
//
// parallel_for splits [begin, end) into contiguous chunks executed on the
// process-wide persistent ThreadPool (common/thread_pool.h) — no threads
// are spawned per call, so steady small-batch workloads stop paying
// jthread start/join latency. Exceptions thrown by the body are captured
// and rethrown on the calling thread (first one wins). The chunk partition
// is a pure function of (range, workers), so results are bit-identical to
// the old spawn-per-call implementation and independent of pool size.
#pragma once

#include <cstddef>

#include "common/function_ref.h"

namespace mlqr {

/// Single worker-count ceiling shared by the MLQR_THREADS override and the
/// hardware_concurrency fallback (pool fan-out cost stays sane well past
/// any machine we target).
inline constexpr std::size_t kMaxWorkerThreads = 64;

/// Pure resolution rule behind parallel_thread_count(), exposed so tests
/// can pin the env/hardware interplay without mutating the process
/// environment: `env_value` is the MLQR_THREADS string (nullptr when
/// unset) and `hardware` is hardware_concurrency() (0 when unknown). The
/// env string must parse strictly as an integer >= 1 (parse_int_strict —
/// trailing junk like "12abc" is rejected, not truncated); invalid values
/// warn once to stderr and fall back to the hardware count. Both paths
/// share kMaxWorkerThreads as the cap.
std::size_t resolve_thread_count(const char* env_value, unsigned hardware);

/// Number of worker threads parallel_for will use. Respects the
/// MLQR_THREADS environment variable; otherwise hardware_concurrency. Both
/// are clamped to [1, kMaxWorkerThreads].
std::size_t parallel_thread_count();

/// Invokes body(i) for every i in [begin, end), distributed over worker
/// threads in contiguous chunks. Falls back to a serial loop for small
/// ranges. The body must be safe to invoke concurrently for distinct i.
/// Every body is a non-owning FunctionRef: the call returns only after
/// the last invocation, so the caller's lambda outlives them all.
void parallel_for(std::size_t begin, std::size_t end,
                  FunctionRef<void(std::size_t)> body);

/// Chunked variant: body(chunk_begin, chunk_end) per worker — useful when
/// per-thread scratch state amortizes across a whole chunk.
void parallel_for_chunked(std::size_t begin, std::size_t end,
                          FunctionRef<void(std::size_t, std::size_t)> body);

/// Worker-slot variant with an explicit worker budget: the range is split
/// into at most `workers` contiguous chunks and body(slot, lo, hi) runs one
/// chunk per worker, with `slot` in [0, workers). The slot index lets
/// callers keep stable per-worker scratch pools (the streaming engine's
/// allocation-free hot path). workers == 0 means parallel_thread_count();
/// workers == 1 (or a tiny range) runs inline on the calling thread with
/// slot 0 and allocates nothing; a pooled fan-out allocates the one Job
/// that ThreadPool::run shares with its workers.
void parallel_for_slots(
    std::size_t begin, std::size_t end, std::size_t workers,
    FunctionRef<void(std::size_t, std::size_t, std::size_t)> body);

}  // namespace mlqr
