// A lazily-started, process-wide pool of worker threads.
//
// The pool executes *indexed jobs*: run_indexed(count, workers, fn) calls
// fn(0) … fn(count-1) exactly once each, distributing indices over at most
// `workers` threads (calling thread included) and blocking until all have
// finished. Index order across threads is unspecified — determinism is the
// responsibility of the chunked algorithms in exec/parallel.hpp, which
// make each index's work self-contained and merge results by index.
//
// Guarantees:
//  - The first exception thrown by `fn` is captured and rethrown on the
//    job's own calling thread; remaining indices of that job are
//    abandoned. Other jobs running at the same time are unaffected.
//  - Re-entrant use is safe: a nested run_indexed from inside a running
//    job (on a helper or on the job's caller) executes inline on that
//    thread instead of deadlocking.
//  - Concurrent top-level callers share the helpers. Each caller links
//    its job into a short list of open jobs, each with its own count of
//    helper slots; a free helper joins the oldest job that still wants
//    help. A caller always works on its own job, so when every helper is
//    busy elsewhere it runs the whole job itself — no caller ever waits
//    for another caller's job.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/function_ref.hpp"

namespace hmdiv::exec {

class ThreadPool {
 public:
  /// Starts `helpers` persistent worker threads (0 is valid: every job
  /// then runs inline on the calling thread).
  explicit ThreadPool(unsigned helpers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of persistent helper threads (calling thread not counted).
  [[nodiscard]] unsigned helper_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Executes fn(0) … fn(count-1), using at most `max_threads` threads
  /// including the caller. Blocks until every index has run (or the job
  /// failed), so the callable behind `fn` only needs to live for the call.
  /// Rethrows the first exception thrown by fn. Safe to call from several
  /// threads at once.
  void run_indexed(std::size_t count, unsigned max_threads,
                   FunctionRef<void(std::size_t)> fn);

  /// The process-wide shared pool: hardware_concurrency() − 1 helpers,
  /// but at least 3, so multi-thread paths really run concurrently on
  /// small machines. Started on first use.
  [[nodiscard]] static ThreadPool& global();

 private:
  /// One run_indexed invocation, living on its caller's stack. Threads
  /// pull indices from `next` until the range is exhausted or a failure
  /// is flagged.
  struct Job {
    explicit Job(FunctionRef<void(std::size_t)> f) : fn(f) {}
    FunctionRef<void(std::size_t)> fn;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;     // guarded by error_mutex
    std::mutex error_mutex;
    // Guarded by the pool mutex:
    unsigned slots = 0;           // helpers this job still wants
    unsigned active_helpers = 0;  // helpers inside execute(*this)
    Job* newer = nullptr;         // open-job list, oldest first
    Job* older = nullptr;
    std::condition_variable helpers_done;  // active_helpers reached 0
    /// Submission timestamp for queue-wait profiling; only read when
    /// `timed` (set iff obs profiling was enabled at submit time).
    std::chrono::steady_clock::time_point submitted{};
    bool timed = false;
  };

  void worker_loop();
  static void execute(Job& job);
  /// Takes one helper slot of the oldest open job that still has
  /// unclaimed indices, or returns null. Caller holds mutex_.
  Job* claim_slot();
  void link(Job& job);    // caller holds mutex_
  void unlink(Job& job);  // caller holds mutex_

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::vector<std::thread> workers_;
  Job* oldest_ = nullptr;  // open jobs; guarded by mutex_
  Job* newest_ = nullptr;
  unsigned idle_ = 0;      // helpers blocked on work_ready_; guarded by mutex_
  bool stopping_ = false;
};

}  // namespace hmdiv::exec
