// Persistent worker-thread pool behind every parallel_for* fan-out.
//
// The original common/parallel implementation spawned and joined fresh
// std::jthreads per call — fine for the big training loops, a latency tax
// of tens of microseconds per batch for the streaming engine's steady
// small-batch workload (one thread spawn costs more than classifying a
// shot). ThreadPool keeps the workers alive across calls: run(count, task)
// hands task indices 0..count-1 to the resident workers (the calling
// thread participates too, so a pool is never slower than inline
// execution) and blocks until all complete, rethrowing the first task
// exception. The pool survives throwing tasks and is immediately reusable.
//
// Scheduling is deliberately dumb and deterministic-friendly: task index
// == chunk index, so parallel_for_slots keeps its contract that slot w
// covers the w-th contiguous chunk of the range — results stay
// bit-identical across pool sizes, and per-slot scratch (InferenceScratch)
// keeps working unchanged. Nested run() calls are safe: a task that fans
// out again enqueues a fresh job and the enqueuing thread drains it
// itself, so progress never depends on idle pool workers existing.
//
// Locking contract (compile-time checked on Clang, see
// common/annotations.h): the pool-level job queue and stop flag are
// MLQR_GUARDED_BY(mutex_); each Job's completion count and first-error
// slot are MLQR_GUARDED_BY(its own done_mutex). The two locks never nest.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/function_ref.h"

namespace mlqr {

class ThreadPool {
 public:
  /// Starts `n_threads` resident workers (0 is allowed: every run() then
  /// executes entirely on the calling thread, still one task at a time).
  explicit ThreadPool(std::size_t n_threads);

  /// Joins the workers. Outstanding run() calls must have returned.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of resident worker threads (the calling thread of run() adds
  /// one more executor on top).
  std::size_t size() const { return threads_.size(); }

  /// Executes task(0) .. task(count-1) across the resident workers and the
  /// calling thread; returns when all have completed. Task exceptions are
  /// captured and the first (in completion order) is rethrown here after
  /// the remaining tasks finish — the pool itself stays healthy. Safe to
  /// call concurrently from multiple threads and recursively from inside a
  /// task (the caller always drains its own job, so nested fan-outs cannot
  /// deadlock even with zero idle workers). `task` is a non-owning
  /// reference, valid because run() outlives every task. A single task (or
  /// a pool without workers) runs inline and allocates nothing; a pooled
  /// fan-out allocates one shared Job, which its workers keep alive.
  void run(std::size_t count, FunctionRef<void(std::size_t)> task)
      MLQR_EXCLUDES(mutex_);

  /// Process-wide pool used by parallel_for*: lazily constructed on first
  /// use with parallel_thread_count() workers (MLQR_THREADS honoured,
  /// capped at kMaxWorkerThreads) and kept alive for the process lifetime.
  static ThreadPool& shared();

  /// True when the current thread is a resident worker of any ThreadPool.
  /// (Diagnostic; nested fan-outs are safe either way.)
  static bool inside_worker();

 private:
  /// One run() invocation: a batch of `count` tasks claimed by index.
  struct Job {
    Job(std::size_t n, FunctionRef<void(std::size_t)> t)
        : count(n), task(t), remaining(n) {}

    const std::size_t count;
    /// Next unclaimed index. Guarded by the owning pool's mutex_ — a
    /// cross-object capability Clang TSA cannot name from this scope, so
    /// the contract is enforced at the access sites (all of which hold
    /// the pool lock via claim_front / run's claim loop).
    std::size_t next = 0;
    const FunctionRef<void(std::size_t)> task;
    Mutex done_mutex;
    CondVar done_cv;
    std::size_t remaining MLQR_GUARDED_BY(done_mutex);
    std::exception_ptr first_error MLQR_GUARDED_BY(done_mutex);
  };

  void worker_loop();
  static void execute(Job& job, std::size_t index);
  /// Claims the next task index of the front job, discarding it from the
  /// queue once fully claimed. False when the front job was exhausted by
  /// its submitter (the entry is dropped; callers re-check the queue).
  bool claim_front(std::shared_ptr<Job>& job, std::size_t& index)
      MLQR_REQUIRES(mutex_);

  Mutex mutex_;
  CondVar work_cv_;  ///< Workers waiting for jobs_ / stop_ under mutex_.
  std::deque<std::shared_ptr<Job>> jobs_ MLQR_GUARDED_BY(mutex_);
  bool stop_ MLQR_GUARDED_BY(mutex_) = false;
  std::vector<std::jthread> threads_;
};

}  // namespace mlqr
