// Tests for the execution substrate: thread pool / parallel_for semantics
// and the offload residency runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "exec/offload.hpp"
#include "exec/thread_pool.hpp"
#include "util/error.hpp"

namespace mpas::exec {
namespace {

TEST(ThreadPool, InlineModeRunsOnCaller) {
  ThreadPool pool(0);
  std::vector<int> data(1000, 0);
  pool.parallel_for(1000, [&](Index b, Index e) {
    for (Index i = b; i < e; ++i) data[i] = 1;
  });
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0), 1000);
}

TEST(ThreadPool, CoversRangeExactlyOnceStatic) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(10000, [&](Index b, Index e) {
    for (Index i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  for (int round = 0; round < 200; ++round)
    pool.parallel_for(100, [&](Index b, Index e) {
      for (Index i = b; i < e; ++i) sum.fetch_add(i);
    });
  EXPECT_EQ(sum.load(), 200L * (99 * 100 / 2));
  EXPECT_EQ(pool.regions_opened(), 200u);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](Index b, Index) {
                                   if (b == 0) throw Error("boom");
                                 }),
               Error);
  // The pool must still be usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](Index b, Index e) { count += e - b; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&](Index, Index) { touched = true; });
  EXPECT_FALSE(touched);
}

// -- spin-then-park handshake ------------------------------------------------
// Idle workers spin for a bounded window, then park; these cover both sides
// of that window, the lost-wake-up races between them, and teardown.

// Longer than the pool's spin window, so idle participants are parked.
constexpr auto kPastSpinWindow = std::chrono::milliseconds(5);

TEST(ThreadPoolHandshake, RegionAfterSpinWindowWakesParkedWorkers) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::this_thread::sleep_for(kPastSpinWindow);
    std::vector<std::atomic<int>> hits(4000);
    pool.parallel_for(4000, [&](Index b, Index e) {
      for (Index i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
  EXPECT_EQ(pool.regions_opened(), 5u);
}

TEST(ThreadPoolHandshake, BackToBackTinyRegionsLoseNoWakeUp) {
  ThreadPool pool(3);
  constexpr int kRegions = 100000;
  std::atomic<long> sum{0};
  for (int r = 0; r < kRegions; ++r) {
    // Now and then idle for about the spin window, so region publication
    // races workers that are just giving up spinning and parking.
    if (r % 1024 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(r % 400));
    pool.parallel_for(4, [&](Index b, Index e) {
      for (Index i = b; i < e; ++i) sum.fetch_add(i + 1);
    });
  }
  EXPECT_EQ(sum.load(), 10L * kRegions);
  EXPECT_EQ(pool.regions_opened(), static_cast<std::uint64_t>(kRegions));
}

TEST(ThreadPoolHandshake, WorkerExceptionIsRethrownAndPoolStaysUsable) {
  ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> caller_slabs{0};
    EXPECT_THROW(pool.parallel_for(400,
                                   [&](Index, Index) {
                                     if (std::this_thread::get_id() == caller) {
                                       caller_slabs.fetch_add(1);
                                       return;
                                     }
                                     throw Error("worker boom");
                                   }),
                 Error);
    EXPECT_EQ(caller_slabs.load(), 1);  // the caller's own slab did not throw
    std::atomic<int> count{0};
    pool.parallel_for(1000, [&](Index b, Index e) { count += e - b; });
    EXPECT_EQ(count.load(), 1000);
  }
}

TEST(ThreadPoolHandshake, DestroyWhileWorkersSpinOrPark) {
  for (int i = 0; i < 20; ++i) {
    ThreadPool never_used(3);
  }
  for (int i = 0; i < 20; ++i) {
    ThreadPool spinning(3);
    std::atomic<int> count{0};
    spinning.parallel_for(64, [&](Index b, Index e) { count += e - b; });
    EXPECT_EQ(count.load(), 64);
  }  // destroyed right after the region, workers still inside the window
  for (int i = 0; i < 3; ++i) {
    ThreadPool parked(3);
    parked.parallel_for(64, [](Index, Index) {});
    std::this_thread::sleep_for(kPastSpinWindow);
  }
}

TEST(ThreadPoolHandshake, WaitIdleFromSecondThreadBlocksUntilRegionEnds) {
  ThreadPool pool(2);
  pool.wait_idle();  // idle pool: returns at once

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<bool> idle_returned{false};
  std::thread region([&] {
    pool.parallel_for(3, [&](Index, Index) {
      started = true;
      while (!release) std::this_thread::yield();
    });
  });
  while (!started) std::this_thread::yield();
  std::thread waiter([&] {
    pool.wait_idle();
    idle_returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(idle_returned.load());  // the region cannot have ended
  release = true;
  region.join();
  waiter.join();
  EXPECT_TRUE(idle_returned.load());
}

TEST(ThreadPoolHandshake, OversubscribedPoolCoversRangeExactlyOnce) {
  const int threads =
      2 * static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  ThreadPool pool(threads);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> hits(5003);
    pool.parallel_for(5003, [&](Index b, Index e) {
      for (Index i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

class OffloadTest : public ::testing::Test {
 protected:
  OffloadTest()
      : rt(machine::TransferLink{}, TransferPolicy::ResidentMesh,
           std::size_t{8} * 1024 * 1024 * 1024) {
    mesh_buf = rt.register_buffer("mesh", 1000000, BufferKind::MeshData);
    state_buf = rt.register_buffer("h", 8000, BufferKind::ComputeData);
  }
  OffloadRuntime rt;
  BufferId mesh_buf = -1;
  BufferId state_buf = -1;
};

TEST_F(OffloadTest, InitialUploadPushesEverythingOnce) {
  const Real t = rt.initial_upload();
  EXPECT_GT(t, 0);
  EXPECT_EQ(rt.stats().bytes_to_device, 1008000u);
  // Mesh stays resident: re-ensuring costs nothing.
  EXPECT_EQ(rt.ensure_on_device(mesh_buf), 0.0);
  EXPECT_EQ(rt.ensure_on_device(state_buf), 0.0);
}

TEST_F(OffloadTest, HostWriteInvalidatesDeviceCopyOnly) {
  rt.initial_upload();
  rt.mark_written_on_host(state_buf);
  EXPECT_GT(rt.ensure_on_device(state_buf), 0.0);  // must re-upload
  EXPECT_EQ(rt.ensure_on_device(mesh_buf), 0.0);   // mesh untouched
}

TEST_F(OffloadTest, DeviceWriteRequiresDownloadBeforeHostRead) {
  rt.initial_upload();
  rt.mark_written_on_device(state_buf);
  EXPECT_GT(rt.ensure_on_host(state_buf), 0.0);
  EXPECT_EQ(rt.ensure_on_host(state_buf), 0.0);  // now valid both sides
}

TEST_F(OffloadTest, MeshBuffersMustNotBeWritten) {
  EXPECT_THROW(rt.mark_written_on_device(mesh_buf), Error);
  EXPECT_THROW(rt.mark_written_on_host(mesh_buf), Error);
}

TEST_F(OffloadTest, DeviceMemoryCapacityIsEnforced) {
  OffloadRuntime small(machine::TransferLink{}, TransferPolicy::ResidentMesh,
                       1024);
  small.register_buffer("fits", 1000, BufferKind::ComputeData);
  EXPECT_THROW(small.register_buffer("too-big", 100, BufferKind::ComputeData),
               Error);
}

TEST_F(OffloadTest, OversubscriptionLeavesRuntimeUsable) {
  OffloadRuntime small(machine::TransferLink{}, TransferPolicy::ResidentMesh,
                       1024);
  const BufferId ok = small.register_buffer("fits", 1000,
                                            BufferKind::ComputeData);
  EXPECT_THROW(small.register_buffer("too-big", 100, BufferKind::ComputeData),
               Error);
  // The rejected registration must not leak into the accounting.
  EXPECT_EQ(small.total_buffer_bytes(), 1000u);
  EXPECT_GT(small.initial_upload(), 0.0);
  EXPECT_EQ(small.ensure_on_device(ok), 0.0);
}

TEST_F(OffloadTest, EndOffloadRegionInvalidatesEverythingUnderOnDemand) {
  OffloadRuntime od(machine::TransferLink{}, TransferPolicy::OnDemand,
                    std::size_t{1} << 30);
  const BufferId mesh = od.register_buffer("mesh", 1000, BufferKind::MeshData);
  const BufferId state = od.register_buffer("h", 500, BufferKind::ComputeData);
  EXPECT_GT(od.ensure_on_device(mesh), 0.0);
  EXPECT_GT(od.ensure_on_device(state), 0.0);
  od.mark_written_on_device(state);
  od.end_offload_region();
  // The region's `out` copy-back downloaded the device-written state...
  EXPECT_EQ(od.stats().bytes_to_host, 500u);
  EXPECT_EQ(od.ensure_on_host(state), 0.0);
  // ...and nothing persisted on the device, mesh included.
  EXPECT_GT(od.ensure_on_device(mesh), 0.0);
  EXPECT_GT(od.ensure_on_device(state), 0.0);
}

TEST_F(OffloadTest, EndOffloadRegionIsANoopUnderResidentMesh) {
  rt.initial_upload();
  const auto before = rt.stats();
  rt.end_offload_region();
  EXPECT_EQ(rt.stats().transfers, before.transfers);
  EXPECT_EQ(rt.ensure_on_device(mesh_buf), 0.0);
  EXPECT_EQ(rt.ensure_on_device(state_buf), 0.0);
}

TEST_F(OffloadTest, ResetStatsClearsCountersButNotResidency) {
  rt.initial_upload();
  ASSERT_GT(rt.stats().transfers, 0u);
  rt.reset_stats();
  EXPECT_EQ(rt.stats().transfers, 0u);
  EXPECT_EQ(rt.stats().bytes_to_device, 0u);
  EXPECT_EQ(rt.stats().modeled_seconds, 0.0);
  // Residency is state, not a statistic: buffers are still on the device.
  EXPECT_EQ(rt.ensure_on_device(mesh_buf), 0.0);
}

TEST_F(OffloadTest, TransferFaultIsRetriedAndAccounted) {
  resilience::FaultInjector inj;
  resilience::FaultSpec fail;
  fail.kind = resilience::FaultKind::TransferFail;
  fail.buffer = state_buf;
  inj.add(fail);
  rt.set_resilience(&inj, resilience::RetryPolicy{});

  const Real t = rt.initial_upload();
  EXPECT_GT(t, 0.0);
  const auto& s = rt.stats();
  EXPECT_EQ(s.transfer_faults, 1u);
  EXPECT_EQ(s.transfer_retries, 1u);
  // Successful-delivery accounting: each buffer counted once...
  EXPECT_EQ(s.bytes_to_device, 1008000u);
  EXPECT_EQ(s.transfers, 2u);
  // ...but the modeled time additionally charges the failed attempt.
  OffloadRuntime clean(machine::TransferLink{}, TransferPolicy::ResidentMesh,
                       std::size_t{8} * 1024 * 1024 * 1024);
  clean.register_buffer("mesh", 1000000, BufferKind::MeshData);
  clean.register_buffer("h", 8000, BufferKind::ComputeData);
  clean.initial_upload();
  EXPECT_GT(s.modeled_seconds, clean.stats().modeled_seconds);
}

TEST_F(OffloadTest, PersistentTransferFaultEscalates) {
  resilience::FaultInjector inj;
  resilience::FaultSpec corrupt;
  corrupt.kind = resilience::FaultKind::TransferCorrupt;
  corrupt.buffer = mesh_buf;
  corrupt.repeat = 100;  // outlives any retry budget
  inj.add(corrupt);
  resilience::RetryPolicy retry;
  retry.max_attempts = 3;
  rt.set_resilience(&inj, retry);
  try {
    rt.initial_upload();
    FAIL() << "expected escalation";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'mesh'"), std::string::npos) << what;
    EXPECT_NE(what.find("on all 3 attempts"), std::string::npos) << what;
  }
  EXPECT_EQ(rt.stats().transfer_faults, 3u);
  EXPECT_EQ(rt.stats().transfer_retries, 2u);
}

TEST_F(OffloadTest, TransferRecoveryDisabledThrowsOnFirstFault) {
  resilience::FaultInjector inj;
  resilience::FaultSpec fail;
  fail.kind = resilience::FaultKind::TransferFail;
  inj.add(fail);
  rt.set_resilience(&inj, resilience::RetryPolicy{}, /*recover=*/false);
  try {
    rt.initial_upload();
    FAIL() << "expected immediate escalation";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("recovery disabled"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(rt.stats().transfer_retries, 0u);
}

TEST(OffloadPolicy, OnDemandMovesMoreBytesThanResident) {
  // The Section IV.A claim: keeping mesh data resident cuts transfer volume.
  // Simulate 10 "steps" where the device kernel reads mesh + state and
  // writes state.
  const std::size_t cap = std::size_t{8} * 1024 * 1024 * 1024;
  for (auto policy : {TransferPolicy::OnDemand, TransferPolicy::ResidentMesh}) {
    OffloadRuntime rt(machine::TransferLink{}, policy, cap);
    const BufferId mesh = rt.register_buffer("mesh", 4000000,
                                             BufferKind::MeshData);
    const BufferId state = rt.register_buffer("state", 1000000,
                                              BufferKind::ComputeData);
    rt.initial_upload();
    for (int step = 0; step < 10; ++step) {
      rt.ensure_on_device(mesh);
      rt.ensure_on_device(state);
      rt.mark_written_on_device(state);
      rt.ensure_on_host(state);
      rt.mark_written_on_host(state);  // host-side half step
      rt.end_offload_region();
    }
    if (policy == TransferPolicy::OnDemand) {
      // `#pragma offload` in/out semantics: mesh + state shipped every
      // region -> 10 x 5 MB up.
      EXPECT_EQ(rt.stats().bytes_to_device, 50000000u);
    } else {
      // One 5 MB initial upload + 9 state refreshes (the first step's
      // state is still valid from the initial upload).
      EXPECT_EQ(rt.stats().bytes_to_device, 14000000u);
      // The paper's Section IV.A claim: transfers reduced by ~4x.
      EXPECT_GT(50000000.0 / 14000000.0, 3.5);
    }
  }
}

}  // namespace
}  // namespace mpas::exec
