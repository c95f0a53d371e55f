#include "common/parallel.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/annotations.h"
#include "common/env.h"
#include "common/thread_pool.h"

namespace mlqr {

std::size_t resolve_thread_count(const char* env_value, unsigned hardware) {
  const std::size_t fallback =
      std::clamp<std::size_t>(hardware, 1, kMaxWorkerThreads);
  if (!env_value) return fallback;
  const std::optional<std::int64_t> v = parse_int_strict(env_value);
  if (!v || *v < 1) {
    // Lenient parsing here used to accept "12abc" as 12 and silently drop
    // "0"/garbage — a misconfigured knob that decides every fan-out in the
    // process deserves one loud line.
    static WarnOnce warned;
    if (warned.first())
      std::fprintf(stderr,
                   "[mlqr] ignoring invalid MLQR_THREADS=\"%s\" (want an "
                   "integer in [1, %zu]); using %zu worker(s)\n",
                   env_value, kMaxWorkerThreads, fallback);
    return fallback;
  }
  return std::min(static_cast<std::size_t>(*v), kMaxWorkerThreads);
}

std::size_t parallel_thread_count() {
  static const std::size_t count = resolve_thread_count(
      std::getenv("MLQR_THREADS"), std::thread::hardware_concurrency());
  return count;
}

void parallel_for_slots(
    std::size_t begin, std::size_t end, std::size_t workers,
    FunctionRef<void(std::size_t, std::size_t, std::size_t)> body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (workers == 0) workers = parallel_thread_count();
  workers = std::min(workers, n);
  if (workers <= 1 || n < 2) {
    body(0, begin, end);
    return;
  }

  // Same contiguous partition the per-call-jthread implementation used:
  // slot w covers [begin + w*chunk, begin + (w+1)*chunk) — the determinism
  // contract (results independent of worker count) and per-slot scratch
  // indexing both hang off this shape, only the execution vehicle changed.
  const std::size_t chunk = (n + workers - 1) / workers;
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  ThreadPool::shared().run(n_chunks, [&](std::size_t w) {
    const std::size_t lo = begin + w * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    body(w, lo, hi);
  });
}

void parallel_for_chunked(std::size_t begin, std::size_t end,
                          FunctionRef<void(std::size_t, std::size_t)> body) {
  parallel_for_slots(begin, end, 0,
                     [&](std::size_t, std::size_t lo, std::size_t hi) {
                       body(lo, hi);
                     });
}

void parallel_for(std::size_t begin, std::size_t end,
                  FunctionRef<void(std::size_t)> body) {
  parallel_for_chunked(begin, end, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
}

}  // namespace mlqr
