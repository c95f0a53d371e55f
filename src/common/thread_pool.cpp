#include "common/thread_pool.h"

#include "common/parallel.h"

namespace mlqr {

namespace {
thread_local bool t_inside_worker = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  threads_.reserve(n_threads);
  for (std::size_t t = 0; t < n_threads; ++t)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  threads_.clear();  // jthread joins.
}

bool ThreadPool::inside_worker() { return t_inside_worker; }

ThreadPool& ThreadPool::shared() {
  // Lazily started on first parallel call; intentionally leaked via static
  // storage so worker shutdown ordering never races static destructors in
  // translation units that might still issue parallel work at exit.
  static ThreadPool& pool = *new ThreadPool(parallel_thread_count());
  return pool;
}

void ThreadPool::execute(Job& job, std::size_t index) {
  std::exception_ptr error;
  try {
    job.task(index);
  } catch (...) {
    error = std::current_exception();
  }
  MutexLock lock(job.done_mutex);
  if (error && !job.first_error) job.first_error = error;
  if (--job.remaining == 0) job.done_cv.notify_all();
}

bool ThreadPool::claim_front(std::shared_ptr<Job>& job, std::size_t& index) {
  // The front job may already be fully claimed (the submitting thread
  // drains its own job too); discard exhausted entries so workers re-wait.
  job = jobs_.front();
  if (job->next >= job->count) {
    jobs_.pop_front();
    return false;
  }
  index = job->next++;
  if (job->next >= job->count) jobs_.pop_front();
  return true;
}

void ThreadPool::worker_loop() {
  t_inside_worker = true;
  MutexLock lock(mutex_);
  for (;;) {
    while (!stop_ && jobs_.empty()) work_cv_.wait(mutex_);
    if (stop_) return;
    std::shared_ptr<Job> job;
    std::size_t index = 0;
    if (!claim_front(job, index)) continue;
    lock.unlock();
    execute(*job, index);
    lock.lock();
  }
}

void ThreadPool::run(std::size_t count, FunctionRef<void(std::size_t)> task) {
  if (count == 0) return;
  if (count == 1 || threads_.empty()) {
    // Nothing to fan out (or nobody to fan out to): run inline with the
    // same all-tasks-run, first-error-wins contract as the pooled path.
    std::exception_ptr first_error;
    for (std::size_t index = 0; index < count; ++index) {
      try {
        task(index);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }
  const auto job = std::make_shared<Job>(count, task);
  {
    MutexLock lock(mutex_);
    jobs_.push_back(job);
  }
  // The caller takes one task itself, so at most count-1 workers are
  // useful; waking the whole pool for a 2-chunk micro-batch costs latency.
  const std::size_t wake = std::min(count - 1, threads_.size());
  for (std::size_t i = 0; i < wake; ++i) work_cv_.notify_one();
  // Participate: claim tasks from our own job until none are left. This
  // keeps single-task runs inline-fast and makes nested fan-outs
  // deadlock-free (progress never requires an idle resident worker).
  for (;;) {
    std::size_t index;
    {
      MutexLock lock(mutex_);
      if (job->next >= job->count) break;
      index = job->next++;
      // Exhausted jobs left mid-deque are discarded by claim_front.
    }
    execute(*job, index);
  }
  MutexLock done(job->done_mutex);
  while (job->remaining != 0) job->done_cv.wait(job->done_mutex);
  if (job->first_error) std::rethrow_exception(job->first_error);
}

}  // namespace mlqr
