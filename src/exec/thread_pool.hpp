// A minimal task pool with a parallel_for front end, in the spirit of an
// OpenMP `parallel for` with static scheduling. SwModel runs its graph
// nodes in program order and hands each node's range to parallel_for;
// DistributedSw runs its ranks through it.
//
// Design notes (following the OpenMP-examples idioms the paper relies on):
//  * One pool is created per "device" and reused across kernels — mirroring
//    the paper's Section IV.B observation that opening a fresh parallel
//    region per pattern is too expensive; we amortize thread startup the
//    same way by keeping workers alive.
//  * Opening a region is a spin-then-park handshake, not a lock plus a
//    futex wake-up. The caller publishes the Task and bumps the atomic
//    `generation_`; workers spin on that word for a bounded window
//    (kSpinWindow in thread_pool.cpp) and only then park on `cv_work_`,
//    counted in `sleepers_`. The caller takes the mutex and notifies only
//    when someone is parked. Completion mirrors it: the caller spins on
//    the Task's `remaining` countdown, then parks with `caller_parked_`
//    set, and the last worker notifies only when that flag is set. The
//    no-lost-wake-up argument (seq_cst store/load pairs) is in DESIGN.md
//    §17.
//  * Every pool spins, whether or not it fits the hardware: a spinner
//    yields between pause bursts, so a participant waiting for a core is
//    not starved when several pools share the machine.
//  * parallel_for blocks until the whole range is done (implicit barrier).
//  * Exceptions thrown by the body are captured and rethrown on the caller.
//  * With 0 workers the pool degrades to inline execution on the caller —
//    used for the "serial baseline" runs and on single-core build machines.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"
#include "util/types.hpp"

namespace mpas::exec {

class ThreadPool {
 public:
  /// `num_threads == 0` means run everything inline on the calling thread.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_threads() const { return num_threads_; }

  /// Apply `body(begin, end)` over [0, n), one contiguous slab per
  /// participant (the workers and the caller), like OpenMP
  /// schedule(static).
  void parallel_for(Index n, const std::function<void(Index, Index)>& body);

  /// Total number of parallel regions opened so far (the machine model
  /// charges a synchronization overhead per region, as in Section IV.B).
  [[nodiscard]] std::uint64_t regions_opened() const {
    return regions_.load(std::memory_order_relaxed);
  }

  /// Block until no parallel region is executing. parallel_for already
  /// blocks its own caller, so this only matters when *another* thread may
  /// be mid-region — the self-healing driver calls it before swapping
  /// schedules at a step boundary so no worker still runs the old plan.
  void wait_idle();

 private:
  struct Task {
    const std::function<void(Index, Index)>* body = nullptr;
    Index n = 0;
    std::atomic<int> remaining{0};
  };

  void worker_loop(int worker_id);
  void run_task_share(Task& task, int participant_id, int participants);
  /// Spin, then park, until `generation_` differs from `seen`; returns it.
  std::uint64_t await_generation(std::uint64_t seen);
  /// Spin, then park, until every worker has finished its share of `task`.
  void await_completion(const Task& task);

  int num_threads_;
  // Lock order (DESIGN.md §14): a SessionManager worker calls parallel_for
  // / wait_idle while holding nothing, so exec.thread_pool ranks above
  // service.session_manager and must never call back into the service
  // layer while held. It guards no field: it only pairs with the two
  // condition variables on the park path, and everything the handshake
  // reads is atomic.
  // concurrency-lint: allow(unguarded-mutex) park/wake only; state is atomic
  util::Mutex mutex_{"exec.thread_pool", util::lockrank::kThreadPool};
  util::ConditionVariable cv_work_;
  util::ConditionVariable cv_done_;
  // The region in flight; nullptr between regions. A generation bump that
  // finds it null tells the workers to exit.
  std::atomic<Task*> current_{nullptr};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<bool> caller_parked_{false};
  std::atomic<int> idle_waiters_{0};
  // Bumped outside the region handshake so the machine-model accounting
  // never serializes against the workers.
  std::atomic<std::uint64_t> regions_{0};
  util::Mutex error_mutex_{"exec.thread_pool_error",
                           util::lockrank::kThreadPoolError};
  std::exception_ptr error_ MPAS_GUARDED_BY(error_mutex_);
  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace mpas::exec
