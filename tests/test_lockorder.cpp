// The lock-order deadlock detector's contract: an AB/BA nesting is flagged
// as exactly one lock-cycle naming both mutexes, rank inversions against
// the DESIGN.md §14 order are caught, a real service + thread-pool workload
// (submit, pause, resume, cancel, drain, shutdown) is *clean* under the
// detector, the detector publishes analysis.lockorder.* metrics, and the
// dark-mode hooks cost effectively nothing.
//
// lock-self (re-acquiring a held mutex) is deliberately untested here:
// triggering it for real would deadlock the test (std::mutex is
// non-recursive), and glibc's try_lock on a held mutex just fails without
// reaching the hook. The branch is defensive — it fires only when a
// deadlock is already in progress.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <time.h>

#include "analysis/lock_order.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "service/request.hpp"
#include "service/session_manager.hpp"
#include "util/mutex.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define MPAS_TEST_SANITIZED 1
#endif
#endif
#if (defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)) && \
    !defined(MPAS_TEST_SANITIZED)
#define MPAS_TEST_SANITIZED 1
#endif

namespace mpas::analysis {
namespace {

/// Install for the test body, then uninstall and wipe the graph so the
/// deliberate inversions seeded here never leak into the at-exit
/// enforcement or a later test's report.
class ScopedDetector {
 public:
  ScopedDetector() { LockOrderRegistry::instance().install(); }
  ~ScopedDetector() {
    LockOrderRegistry::instance().uninstall();
    LockOrderRegistry::instance().reset();
  }
};

TEST(LockOrder, AbBaNestingIsExactlyOneCycleNamingBothLocks) {
  const ScopedDetector detector;
  auto& registry = LockOrderRegistry::instance();
  util::Mutex a{"test.lockorder.A", 0};
  util::Mutex b{"test.lockorder.B", 0};

  {
    const util::LockGuard la(a);
    const util::LockGuard lb(b);  // edge A -> B: fine
  }
  ASSERT_TRUE(registry.report().clean());

  {
    const util::LockGuard lb(b);
    const util::LockGuard la(a);  // edge B -> A: closes the cycle
  }
  Report report = registry.report();
  EXPECT_EQ(report.count_code("lock-cycle"), 1);
  EXPECT_EQ(report.errors(), 1);
  const std::string message = report.diagnostics().front().message;
  EXPECT_NE(message.find("test.lockorder.A"), std::string::npos) << message;
  EXPECT_NE(message.find("test.lockorder.B"), std::string::npos) << message;

  // The same inversion again is the same edge: still exactly one finding.
  {
    const util::LockGuard lb(b);
    const util::LockGuard la(a);
  }
  EXPECT_EQ(registry.report().count_code("lock-cycle"), 1);

  // Both orientations are in the observed graph, with their names.
  bool saw_ab = false;
  bool saw_ba = false;
  for (const auto& edge : registry.edges()) {
    if (edge.from_name == "test.lockorder.A" &&
        edge.to_name == "test.lockorder.B")
      saw_ab = true;
    if (edge.from_name == "test.lockorder.B" &&
        edge.to_name == "test.lockorder.A")
      saw_ba = true;
  }
  EXPECT_TRUE(saw_ab);
  EXPECT_TRUE(saw_ba);
}

TEST(LockOrder, CycleAcrossThreadsIsCaughtWithoutDeadlocking) {
  const ScopedDetector detector;
  auto& registry = LockOrderRegistry::instance();
  util::Mutex a{"test.lockorder.thread_A", 0};
  util::Mutex b{"test.lockorder.thread_B", 0};

  // Serialized (never concurrent) opposite nestings from two threads: no
  // real deadlock occurs, but the interleaving *could* deadlock — exactly
  // what the graph must catch.
  std::thread first([&] {
    const util::LockGuard la(a);
    const util::LockGuard lb(b);
  });
  first.join();
  std::thread second([&] {
    const util::LockGuard lb(b);
    const util::LockGuard la(a);
  });
  second.join();

  EXPECT_EQ(registry.report().count_code("lock-cycle"), 1);
}

TEST(LockOrder, RankInversionIsFlaggedOncePerPair) {
  const ScopedDetector detector;
  auto& registry = LockOrderRegistry::instance();
  util::Mutex low{"test.lockorder.low", 10};
  util::Mutex high{"test.lockorder.high", 50};

  {
    const util::LockGuard ll(low);
    const util::LockGuard lh(high);  // ascending: fine
  }
  ASSERT_TRUE(registry.report().clean());

  for (int i = 0; i < 3; ++i) {
    const util::LockGuard lh(high);
    const util::LockGuard ll(low);  // descending: rank inversion
  }
  const Report report = registry.report();
  EXPECT_EQ(report.count_code("lock-rank"), 1);  // deduped per (pair)
  const std::string message = report.diagnostics().front().message;
  EXPECT_NE(message.find("test.lockorder.low"), std::string::npos) << message;
  EXPECT_NE(message.find("rank"), std::string::npos) << message;
}

TEST(LockOrder, EqualNonzeroRanksAlsoInvert) {
  const ScopedDetector detector;
  util::Mutex first{"test.lockorder.eq1", 25};
  util::Mutex second{"test.lockorder.eq2", 25};
  {
    const util::LockGuard l1(first);
    const util::LockGuard l2(second);  // equal ranks must never nest
  }
  EXPECT_EQ(LockOrderRegistry::instance().report().count_code("lock-rank"),
            1);
}

TEST(LockOrder, UnrankedMutexesOnlyParticipateInCycleDetection) {
  const ScopedDetector detector;
  util::Mutex ranked{"test.lockorder.ranked", 40};
  util::Mutex unranked{"test.lockorder.unranked", 0};
  {
    const util::LockGuard lr(ranked);
    const util::LockGuard lu(unranked);  // rank 0 = exempt from ordering
  }
  {
    const util::LockGuard lu(unranked);
    // Not a rank inversion (one side unranked)...
    const util::LockGuard lr(ranked);
  }
  // ...but it IS a cycle: both nestings were observed.
  const Report report = LockOrderRegistry::instance().report();
  EXPECT_EQ(report.count_code("lock-rank"), 0);
  EXPECT_EQ(report.count_code("lock-cycle"), 1);
}

TEST(LockOrder, NonLifoUnlockIsHandled) {
  const ScopedDetector detector;
  util::Mutex a{"test.lockorder.lifo_A", 0};
  util::Mutex b{"test.lockorder.lifo_B", 0};
  util::UniqueLock la(a);
  util::UniqueLock lb(b);
  la.unlock();  // release the *older* lock first
  lb.unlock();
  // Held stack is now empty: a fresh B -> A nesting is the FIRST reverse
  // edge only if A -> B was recorded — it was, so exactly one cycle.
  {
    const util::LockGuard l2(b);
    const util::LockGuard l1(a);
  }
  EXPECT_EQ(LockOrderRegistry::instance().report().count_code("lock-cycle"),
            1);
}

// A util::Mutex taken while a thread destroys its thread_locals, after the
// detector's per-thread chain is gone, must leave the dead chain alone.
// The main thread does this at exit when MPAS_TRACE writes its session
// (an atexit handler runs after the thread_local destructors); the ASan
// job turns a touch of the freed chain into a heap-use-after-free.
TEST(LockOrder, MutexTakenDuringThreadTeardownIsIgnored) {
  const ScopedDetector detector;
  static util::Mutex late{"test.lockorder.late", 0};
  struct LocksOnExit {
    ~LocksOnExit() { const util::LockGuard l(late); }
  };
  std::thread([] {
    thread_local LocksOnExit locks_on_exit;  // built before the chain...
    (void)locks_on_exit;
    const util::LockGuard l(late);  // ...which this first lock creates
  }).join();
  EXPECT_TRUE(LockOrderRegistry::instance().report().clean());
}

// The headline integration check: a real service workload — admission,
// dispatch across workers, a thread-pool model run, pause/resume, cancel,
// drain, shutdown — acquires the whole lock stack and must be clean.
TEST(LockOrder, ServiceAndPoolWorkloadIsClean) {
  const ScopedDetector detector;
  auto& registry = LockOrderRegistry::instance();
  auto& metrics = obs::MetricsRegistry::global();
  const double edges_before =
      metrics.counter("analysis.lockorder.edges").value();
  const std::uint64_t acquisitions_before = registry.acquisitions();

  {
    service::ServiceOptions opts;
    opts.workers = 2;
    opts.admission.capacity_modeled_s = 1e9;  // admit everything
    service::SessionManager manager(opts);
    manager.set_paused(true);

    service::SessionRequest req;
    req.tenant = "tenant_a";
    req.mesh_level = 2;
    req.test_case = 2;
    req.steps = 4;
    req.output_every = 2;
    req.threads = 2;  // sessions drive a ThreadPool under the detector

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 4; ++i) ids.push_back(manager.submit(req));
    manager.cancel(ids.back());  // evict one while queued
    manager.set_paused(false);
    ASSERT_TRUE(manager.drain(60000));
    manager.shutdown();

    for (std::size_t i = 0; i + 1 < ids.size(); ++i)
      EXPECT_EQ(manager.result(ids[i]).state,
                service::SessionState::Completed);
  }

  // An independent bare pool exercise, for the pool-only lock pair.
  {
    exec::ThreadPool pool(2);
    std::atomic<long> sum{0};
    pool.parallel_for(1000, [&sum](Index begin, Index end) {
      long local = 0;
      for (Index i = begin; i < end; ++i) local += static_cast<long>(i);
      sum.fetch_add(local);
    });
    pool.wait_idle();
    EXPECT_EQ(sum.load(), 499500);
  }

  EXPECT_TRUE(registry.report().clean()) << registry.report().to_string();
  EXPECT_GT(registry.acquisitions(), acquisitions_before);
  // Metrics smoke: the observed-edge counter moved while enabled.
  EXPECT_GT(metrics.counter("analysis.lockorder.edges").value(),
            edges_before);
  EXPECT_FALSE(registry.edges().empty());
}

// CPU time of this thread, not wall time: a loop preempted by a
// concurrent test process (ctest -j, briefly spinning pool workers) is
// not charged for the time it was off the CPU.
double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// One timed lock/unlock loop. Each mutex type gets its own copy with a
// 64-byte-aligned entry, so the raw and the wrapped loop start at the same
// place in a cache line whatever code the linker puts before them. Inline
// in the test body they moved with unrelated code: a 96-byte shift let the
// raw loop fit one cache line while the wrapped loop spanned two, and that
// alone pushed the ratio past 1.05 in 14 of 100 runs.
template <class M>
[[gnu::noinline, gnu::aligned(64)]] double time_lock_loop(M& m,
                                                         volatile int& sink,
                                                         int iters) {
  const double start = thread_cpu_seconds();
  for (int i = 0; i < iters; ++i) {
    m.lock();
    sink = sink + 1;
    m.unlock();
  }
  return thread_cpu_seconds() - start;
}

// Dark cost: with no registry installed, util::Mutex adds one relaxed
// atomic load and a predicted branch per lock/unlock over std::mutex.
// Min-of-N timing with retries keeps this robust on a noisy CI box; the
// contract is <1%, asserted with a small measurement allowance.
TEST(LockOrder, DarkModeOverheadIsNegligible) {
  ASSERT_FALSE(LockOrderRegistry::instance().installed());
  constexpr int kIters = 400000;
  constexpr int kTrials = 5;
  constexpr int kAttempts = 6;

  std::mutex raw;
  util::Mutex wrapped{"test.lockorder.dark", 0};
  volatile int sink = 0;

  const auto time_raw = [&] { return time_lock_loop(raw, sink, kIters); };
  const auto time_wrapped = [&] {
    return time_lock_loop(wrapped, sink, kIters);
  };

  double best_ratio = 1e9;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    double raw_min = 1e9;
    double wrapped_min = 1e9;
    // Interleave trials so slow drift (thermal, noisy neighbours) hits
    // both sides equally.
    for (int t = 0; t < kTrials; ++t) {
      raw_min = std::min(raw_min, time_raw());
      wrapped_min = std::min(wrapped_min, time_wrapped());
    }
    best_ratio = std::min(best_ratio, wrapped_min / raw_min);
    if (best_ratio <= 1.01) break;  // <1% contract met
  }
#ifdef MPAS_TEST_SANITIZED
  // A sanitizer instruments the wrapper's extra load and call, so here the
  // ratio prices the sanitizer, not the hooks (TSan read 1.34). The loops
  // still run; the bound is asserted in every normal build.
  RecordProperty("dark_mode_ratio", std::to_string(best_ratio));
#else
  // 1.01 is the contract; the extra 0.04 absorbs timer granularity on a
  // 1-CPU CI container (best-of-30 pairs makes exceeding it a real
  // regression, not noise).
  EXPECT_LE(best_ratio, 1.05);
#endif
}

TEST(LockOrder, InstallFromEnvHonorsTheVariable) {
  auto& registry = LockOrderRegistry::instance();
  ASSERT_FALSE(registry.installed());

  ::unsetenv("MPAS_LOCK_CHECK");
  EXPECT_FALSE(LockOrderRegistry::install_from_env());
  EXPECT_FALSE(registry.installed());

  ::setenv("MPAS_LOCK_CHECK", "0", 1);
  EXPECT_FALSE(LockOrderRegistry::install_from_env());
  EXPECT_FALSE(registry.installed());

  ::setenv("MPAS_LOCK_CHECK", "1", 1);
  EXPECT_TRUE(LockOrderRegistry::install_from_env());
  EXPECT_TRUE(registry.installed());

  // Leave the process exactly as found: uninstalled, clean graph, so the
  // at-exit enforcement this armed stays quiet.
  registry.uninstall();
  registry.reset();
  ::unsetenv("MPAS_LOCK_CHECK");
  EXPECT_FALSE(registry.installed());
}

}  // namespace
}  // namespace mpas::analysis
