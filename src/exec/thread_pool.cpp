#include "exec/thread_pool.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace hmdiv::exec {

namespace {

/// True while this thread runs indices of a pooled job, as its caller or
/// as a helper; nested run_indexed calls then run inline.
thread_local bool tl_in_job = false;

#if HMDIV_OBS
/// Nanoseconds between two steady_clock points, clamped to >= 0.
std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count();
  return ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
}
#endif

}  // namespace

ThreadPool::ThreadPool(unsigned helpers) {
  workers_.reserve(helpers);
  for (unsigned i = 0; i < helpers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::global() {
  // Floor of 3 helpers so that multi-thread code paths (and TSan runs) are
  // genuinely concurrent even on small machines; idle helpers cost nothing,
  // and the per-job thread budget still caps actual parallelism.
  static ThreadPool pool(
      std::max(4U, std::thread::hardware_concurrency()) - 1U);
  return pool;
}

void ThreadPool::execute(Job& job) {
  for (;;) {
    if (job.failed.load(std::memory_order_relaxed)) return;
    const std::size_t index =
        job.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= job.count) return;
    HMDIV_OBS_COUNT("exec.pool.tasks", 1);
    try {
      job.fn(index);
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
      }
      job.failed.store(true, std::memory_order_relaxed);
    }
  }
}

ThreadPool::Job* ThreadPool::claim_slot() {
  for (Job* job = oldest_; job != nullptr; job = job->newer) {
    if (job->slots > 0 &&
        job->next.load(std::memory_order_relaxed) < job->count) {
      --job->slots;
      ++job->active_helpers;
      return job;
    }
  }
  return nullptr;
}

void ThreadPool::link(Job& job) {
  job.older = newest_;
  (newest_ != nullptr ? newest_->newer : oldest_) = &job;
  newest_ = &job;
}

void ThreadPool::unlink(Job& job) {
  (job.older != nullptr ? job.older->newer : oldest_) = job.newer;
  (job.newer != nullptr ? job.newer->older : newest_) = job.older;
  job.older = job.newer = nullptr;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Job* claimed = nullptr;
    ++idle_;
    work_ready_.wait(lock, [&] {
      return (claimed = claim_slot()) != nullptr || stopping_;
    });
    --idle_;
    if (claimed == nullptr) return;  // stopping_
    Job& job = *claimed;
    lock.unlock();

#if HMDIV_OBS
    const bool timed = job.timed && obs::enabled();
    std::chrono::steady_clock::time_point picked_up;
    if (timed) {
      picked_up = std::chrono::steady_clock::now();
      static obs::Histogram& queue_wait =
          obs::Registry::global().histogram("exec.pool.queue_wait_ns");
      queue_wait.record(elapsed_ns(job.submitted, picked_up));
    }
#endif
    tl_in_job = true;
    execute(job);
    tl_in_job = false;
#if HMDIV_OBS
    if (timed) {
      static obs::Histogram& busy =
          obs::Registry::global().histogram("exec.pool.helper_busy_ns");
      busy.record(elapsed_ns(picked_up, std::chrono::steady_clock::now()));
    }
#endif

    lock.lock();
    // Notify under the mutex: once the caller sees zero it may return and
    // destroy the job, condition variable included.
    if (--job.active_helpers == 0) job.helpers_done.notify_one();
  }
}

void ThreadPool::run_indexed(std::size_t count, unsigned max_threads,
                             FunctionRef<void(std::size_t)> fn) {
  if (count == 0) return;
  const unsigned budget = std::min<unsigned>(
      {max_threads == 0 ? 1U : max_threads, helper_count() + 1U,
       static_cast<unsigned>(std::min<std::size_t>(count, ~0U))});

  // Serial budget or a call nested inside a running job: inline.
  if (budget <= 1 || tl_in_job) {
    HMDIV_OBS_COUNT("exec.pool.inline_jobs", 1);
    HMDIV_OBS_COUNT("exec.pool.tasks", count);
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  HMDIV_OBS_COUNT("exec.pool.jobs", 1);
  Job job(fn);
  job.count = count;
#if HMDIV_OBS
  if (obs::enabled()) {
    job.timed = true;
    job.submitted = std::chrono::steady_clock::now();
  }
#endif
  unsigned wake = 0;
  unsigned idle = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job.slots = budget - 1;
    link(job);
    idle = idle_;
    wake = std::min(job.slots, idle);
  }
  // Busy helpers look for open jobs before they sleep, so waking more
  // than the idle ones would only cost futex calls. Waking all of them
  // takes one call.
  if (wake > 0 && wake == idle) {
    work_ready_.notify_all();
  } else {
    for (unsigned i = 0; i < wake; ++i) work_ready_.notify_one();
  }

  // The caller is one of the job's threads; with every helper busy it
  // runs all of the indices itself.
  tl_in_job = true;
#if HMDIV_OBS
  std::chrono::steady_clock::time_point own_done;
  if (job.timed) {
    static obs::Histogram& caller_busy =
        obs::Registry::global().histogram("exec.pool.caller_busy_ns");
    const auto started = std::chrono::steady_clock::now();
    execute(job);
    own_done = std::chrono::steady_clock::now();
    caller_busy.record(elapsed_ns(started, own_done));
  } else {
    execute(job);
  }
#else
  execute(job);
#endif
  tl_in_job = false;

  {
    std::unique_lock<std::mutex> lock(mutex_);
    unlink(job);  // Late helpers can no longer join a finished job.
    job.helpers_done.wait(lock, [&job] { return job.active_helpers == 0; });
  }
#if HMDIV_OBS
  // How long the caller sat idle after its own indices ran out, waiting
  // for helpers still inside a chunk (a preempted helper shows up here).
  if (job.timed) {
    static obs::Histogram& caller_wait =
        obs::Registry::global().histogram("exec.pool.caller_wait_ns");
    caller_wait.record(
        elapsed_ns(own_done, std::chrono::steady_clock::now()));
  }
#endif
  if (job.failed.load(std::memory_order_relaxed)) {
    std::rethrow_exception(job.error);
  }
}

}  // namespace hmdiv::exec
