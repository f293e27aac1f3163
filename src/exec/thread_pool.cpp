#include "exec/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace mpas::exec {

namespace {

// How long an idle participant spins before parking. The regions of one
// model step arrive a few microseconds apart, so a spinning worker sees
// the next one well inside the window; a pool left idle longer parks and
// stops using the CPU. A constant, not a knob: it trades at most this much
// CPU per idle gap against one futex round trip per region. Spinners yield
// between pause bursts, so on an oversubscribed machine (several pools, or
// more workers than cores) a preempted participant still gets to run.
constexpr auto kSpinWindow = std::chrono::microseconds(200);

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Poll `ready()` until it holds (true) or kSpinWindow has passed (false).
template <class Ready>
bool spin_until(Ready&& ready) {
  if (ready()) return true;
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      cpu_relax();
      if (ready()) return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads) {
  MPAS_CHECK(num_threads >= 0);
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    // A generation bump with current_ == nullptr is the exit signal. Under
    // the mutex: a worker on its way to park either sees the bump or is
    // already waiting when the notify fires.
    util::LockGuard lock(mutex_);
    generation_.fetch_add(1);
    cv_work_.notify_all();
  }
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_task_share(Task& task, int participant_id,
                                int participants) {
  try {
    if (task.schedule == LoopSchedule::Static) {
      // One contiguous slab per participant, like OpenMP schedule(static).
      const Index per = (task.n + participants - 1) / participants;
      const Index begin = std::min<Index>(task.n, participant_id * per);
      const Index end = std::min<Index>(task.n, begin + per);
      if (begin < end) (*task.body)(begin, end);
    } else {
      for (;;) {
        const Index begin = task.next.fetch_add(task.chunk);
        if (begin >= task.n) break;
        const Index end = std::min<Index>(task.n, begin + task.chunk);
        (*task.body)(begin, end);
      }
    }
  } catch (...) {
    util::LockGuard lock(error_mutex_);
    if (!error_) error_ = std::current_exception();
  }
}

std::uint64_t ThreadPool::await_generation(std::uint64_t seen) {
  std::uint64_t now = seen;
  // seq_cst load: pairs with the caller's generation_ bump and sleepers_
  // load (DESIGN.md §17).
  const auto moved = [&] {
    now = generation_.load();
    return now != seen;
  };
  if (spin_until(moved)) return now;
  util::UniqueLock lock(mutex_);
  sleepers_.fetch_add(1);
  while (!moved()) cv_work_.wait(lock);
  sleepers_.fetch_sub(1);
  return now;
}

void ThreadPool::await_completion(const Task& task) {
  const auto done = [&] { return task.remaining.load() == 0; };
  if (spin_until(done)) return;
  util::UniqueLock lock(mutex_);
  caller_parked_.store(true);
  while (!done()) cv_done_.wait(lock);
  caller_parked_.store(false);
}

void ThreadPool::worker_loop(int worker_id) {
  // Unconditional: lane names must be registered even when the pool starts
  // before tracing is enabled (one-time cost per worker thread).
  obs::TraceRecorder::global().set_thread_name("pool-worker-" +
                                               std::to_string(worker_id));
  std::uint64_t seen_generation = 0;
  for (;;) {
    seen_generation = await_generation(seen_generation);
    // The caller stores current_ before bumping generation_ and clears it
    // only after this worker's countdown below, so this is the new region.
    Task* task = current_.load();
    if (task == nullptr) return;
    // Caller participates too, hence +1 participants with id num_threads_.
    {
      MPAS_TRACE_SCOPE("pool:worker_share");
      run_task_share(*task, worker_id, num_threads_ + 1);
    }
    // `task` lives on the caller's stack: not touched after the countdown.
    if (task->remaining.fetch_sub(1) == 1 && caller_parked_.load()) {
      util::LockGuard lock(mutex_);
      // notify_all: wait_idle callers sleep on cv_done_ too.
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(Index n,
                              const std::function<void(Index, Index)>& body,
                              LoopSchedule schedule, Index chunk) {
  MPAS_CHECK(n >= 0 && chunk > 0);
  if (n == 0) return;
  regions_.fetch_add(1, std::memory_order_relaxed);

  obs::TraceSpan span(obs::TraceRecorder::global(), "pool:parallel_for");
  if (span.active())
    span.set_args(obs::trace_arg("n", static_cast<std::int64_t>(n)) + "," +
                  obs::trace_arg("threads",
                                 static_cast<std::int64_t>(num_threads_)));

  if (num_threads_ == 0) {
    body(0, n);
    return;
  }

  Task task;
  task.body = &body;
  task.n = n;
  task.chunk = chunk;
  task.schedule = schedule;
  task.remaining.store(num_threads_, std::memory_order_relaxed);
  current_.store(&task);
  generation_.fetch_add(1);
  if (sleepers_.load() > 0) {
    util::LockGuard lock(mutex_);
    cv_work_.notify_all();
  }

  // The calling thread works as participant num_threads_ (the last slab).
  run_task_share(task, num_threads_, num_threads_ + 1);
  await_completion(task);

  current_.store(nullptr);
  if (idle_waiters_.load() > 0) {
    util::LockGuard lock(mutex_);
    cv_done_.notify_all();
  }

  std::exception_ptr error;
  {
    util::LockGuard lock(error_mutex_);
    std::swap(error, error_);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::wait_idle() {
  util::UniqueLock lock(mutex_);
  idle_waiters_.fetch_add(1);
  while (current_.load() != nullptr) cv_done_.wait(lock);
  idle_waiters_.fetch_sub(1);
}

}  // namespace mpas::exec
