// The global lock-order rank table.
//
// Every named util::Mutex in src/ carries one of these ranks. The rule the
// LockOrderRegistry (src/analysis/lock_order.hpp, MPAS_LOCK_CHECK=1)
// enforces at runtime: a thread may only acquire a ranked mutex whose rank
// is *strictly greater* than every ranked mutex it already holds. Ranks
// therefore encode the allowed nesting direction — outer coordination
// locks are low, leaf bookkeeping locks are high — and a rank inversion is
// a lock-order violation even before it ever manifests as a deadlock.
//
// Bands (see DESIGN.md §14 for the full table with holders-and-callees):
//   10–19  service front door (SessionManager and what it owns directly)
//   30–49  health / resilience / communication
//   50–59  execution (thread pool, mesh construction)
//   60–89  observability sinks (locked while almost anything is held)
//   90+    util leaves (logging)
//
// Adding a lock: pick the band of its layer, give it a rank strictly
// greater than every lock that may be held while it is taken and strictly
// less than every lock it may take while held, add a row to the DESIGN.md
// table, and name the mutex at its declaration:
//   util::Mutex mutex_{"service.mesh_store", util::lockrank::kMeshStore};
// Rank 0 (kUnranked) opts out of rank checking (cycle detection still
// applies) — for test-local mutexes, not for src/.
#pragma once

namespace mpas::util::lockrank {

inline constexpr int kUnranked = 0;

// ---- service front door (outermost) ----
inline constexpr int kSessionManager = 10;    // service.session_manager
inline constexpr int kMeshStore = 14;         // service.mesh_store
inline constexpr int kAdmission = 16;         // service.admission
inline constexpr int kSessionReference = 18;  // service.session.reference

// ---- health / resilience / communication ----
inline constexpr int kHealthMonitor = 30;     // resilience.health.monitor
inline constexpr int kChannel = 38;           // resilience.channel
inline constexpr int kSimWorld = 40;          // comm.simworld
inline constexpr int kFaultInjector = 46;     // resilience.fault
inline constexpr int kDurableWriter = 48;     // resilience.durable.writer

// ---- execution ----
inline constexpr int kThreadPool = 50;        // exec.thread_pool
inline constexpr int kThreadPoolError = 52;   // exec.thread_pool.error
inline constexpr int kMeshCache = 56;         // mesh.cache

// ---- observability aggregators ----
// Locked *before* the 60+ sinks: the profiler publishes metrics / trace
// events while its own mutex is held.
inline constexpr int kPerfProfiler = 59;      // obs.profiler

// ---- observability sinks (innermost but for logging) ----
inline constexpr int kSlo = 60;               // obs.slo
inline constexpr int kFlightRecorder = 62;    // obs.flight_recorder
inline constexpr int kEventLog = 64;          // obs.event_log
inline constexpr int kMetricsSession = 66;    // obs.metrics.session
inline constexpr int kMetrics = 68;           // obs.metrics
inline constexpr int kTraceSession = 76;      // obs.trace.session
inline constexpr int kTraceRegistry = 78;     // obs.trace.registry
inline constexpr int kTraceBuffer = 80;       // obs.trace.buffer

// ---- util leaves ----
inline constexpr int kLogging = 90;           // util.logging

}  // namespace mpas::util::lockrank
