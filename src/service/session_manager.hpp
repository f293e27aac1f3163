// SessionManager: the simulation-as-a-service front end.
//
// submit() walks the admission ladder (see admission.hpp) under one lock,
// enqueues admitted sessions into the DWRR fair queue, and returns a
// session id whose result() can be polled — or awaited with drain(). A
// fixed crew of worker threads pops sessions fairly and runs each to a
// terminal state with:
//
//   retries    TransientError -> exponential backoff in *modeled* seconds
//              (charged against the session's deadline), bounded attempts;
//   deadlines  checked at step boundaries inside run_session;
//   cancel     cooperative flag, honored at the next step boundary;
//   isolation  each session owns its model, pool, offload runtime, and
//              scoped HealthMonitor, so a quarantine or a throw in one
//              session replans or tears down that session alone.
//
// All bookkeeping is published as service.* metrics; per-tenant admitted
// work feeds the fairness audit the soak asserts on.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <optional>

#include "obs/telemetry/flight_recorder.hpp"
#include "service/admission.hpp"
#include "service/durable_session.hpp"
#include "service/fair_queue.hpp"
#include "service/journal.hpp"
#include "service/mesh_store.hpp"
#include "service/recovery.hpp"
#include "service/request.hpp"
#include "util/annotations.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"

namespace mpas::service {

struct ServiceOptions {
  int workers = 2;
  AdmissionPolicy admission;
  core::SimOptions sim{machine::paper_platform()};
  /// Retry budget for TransientError: attempts and the modeled backoff
  /// (doubled per retry, charged against the deadline).
  int max_attempts = 3;
  Real backoff_start_modeled_s = 0.05;
  /// Flight-recorder dump policy (MPAS_FLIGHT_DUMP grammar by default).
  obs::telemetry::FlightDumpPolicy flight_dump =
      obs::telemetry::FlightDumpPolicy::from_env();
  /// Durable checkpointing + crash recovery (MPAS_CHECKPOINT_* env knobs
  /// by default; an empty dir disables durability entirely).
  DurabilityPolicy durable = DurabilityPolicy::from_env();
};

/// Aggregate service counters (also published as service.* metrics).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t admitted_degraded = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t retries = 0;
  std::uint64_t flight_dumps = 0;   // black-box files written
  std::uint64_t recovered = 0;      // crash-recovered sessions gone terminal
  std::uint64_t recovered_diverged = 0;  // ...whose trajectory diverged
  /// Modeled seconds of admitted work per tenant (the fairness audit).
  std::map<std::string, Real> admitted_seconds_by_tenant;
};

class SessionManager {
 public:
  explicit SessionManager(ServiceOptions opts = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Declare a tenant's scheduling weight (affects both the admission
  /// guarantee and the DWRR dispatch share).
  void set_tenant_weight(const std::string& tenant, Real weight);

  /// Price, admit (possibly degrading or shedding), and enqueue. Always
  /// returns an id; a rejected request's result() is immediately terminal
  /// with the refusal reason.
  std::uint64_t submit(SessionRequest request);

  /// Re-admit a crash-recovered session through the normal ladder,
  /// attaching its durable restore point. Called by the RecoveryManager
  /// (and by recovery tests); not a user entry point.
  std::uint64_t submit_recovered(SessionRequest request, ResumeState resume);

  /// Cooperative cancel: evicts a queued session immediately, asks a
  /// running one to stop at its next step boundary. False when already
  /// terminal.
  bool cancel(std::uint64_t id);

  /// Pause/resume dispatch (admission continues). Lets callers stage a
  /// full queue and then release it — the deterministic way to exercise
  /// fairness at saturation.
  void set_paused(bool paused);

  /// Block until every submitted session is terminal, at most timeout_ms
  /// of wall time. False on timeout.
  bool drain(long timeout_ms = 120000);

  /// Stop accepting work, cancel queued sessions, join the workers.
  void shutdown();

  [[nodiscard]] SessionResult result(std::uint64_t id) const;
  [[nodiscard]] std::vector<SessionResult> results() const;
  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] const CostModel& costs() const { return costs_; }
  [[nodiscard]] Real tenant_budget(const std::string& tenant) const;
  /// The durability policy in force (off when dir is empty).
  [[nodiscard]] const DurabilityPolicy& durability() const {
    return opts_.durable;
  }
  /// Re-admissions performed by startup crash recovery.
  [[nodiscard]] const std::vector<RecoveryOutcome>& recoveries() const {
    return recoveries_;
  }

 private:
  struct Record {
    SessionRequest effective;
    SessionResult result;
    std::atomic<bool> cancel{false};
    bool borrowed = false;
    /// Black box (admitted sessions only). unique_ptr: the recorder must
    /// stay addressable by a running session while records_ rebalances.
    std::unique_ptr<obs::telemetry::FlightRecorder> flight;
    /// Crash-recovery restore point (recovered sessions only).
    std::optional<ResumeState> resume;
    /// Durable checkpointer, created by run_one *outside* the manager lock
    /// (opening the store is file I/O) and released by after_terminal.
    /// unique_ptr for the same stable-address reason as the flight
    /// recorder.
    std::unique_ptr<SessionCheckpointer> durable;
  };

  /// A flight-recorder dump decided under the lock but executed after it:
  /// directory creation and the JSONL write are file I/O, which must never
  /// run under mutex_ (the concurrency lint enforces this). The recorder
  /// pointer stays valid because records_ holds the owning unique_ptr for
  /// the manager's whole lifetime.
  struct PendingDump {
    obs::telemetry::FlightRecorder* flight = nullptr;
    std::string dir;
    std::string path;
    std::uint64_t id = 0;
    std::string tenant;
    std::string trigger;
  };

  void worker_loop(int worker_index);
  void run_one(std::uint64_t id);
  /// The locked core of submit(); the public wrapper flushes any flight
  /// dumps a shed verdict queued.
  std::uint64_t submit_locked(SessionRequest request,
                              std::optional<ResumeState> resume = std::nullopt)
      MPAS_REQUIRES(mutex_);
  /// Mark `id` terminal and release its admission reservation (lock held).
  /// Queues (never performs) the flight-recorder dump; every caller must
  /// call flush_flight_dumps() after releasing mutex_.
  void finish_locked(Record& rec, SessionState state,
                     const std::string& reason,
                     ReasonCode code = ReasonCode::None)
      MPAS_REQUIRES(mutex_);
  /// Write out dumps queued by finish_locked, outside the lock.
  void flush_flight_dumps() MPAS_EXCLUDES(mutex_);
  /// run_one's last act once `rec` is terminal, outside the lock (file
  /// I/O and a thread join): retire and release its durable checkpointer,
  /// then flush the queued flight dumps.
  void after_terminal(Record& rec) MPAS_EXCLUDES(mutex_);
  void publish_locked() const MPAS_REQUIRES(mutex_);
  [[nodiscard]] AdmissionInput admission_input_locked(
      const std::string& tenant) const MPAS_REQUIRES(mutex_);

  ServiceOptions opts_;
  CostModel costs_;
  AdmissionController admission_;
  MeshStore meshes_;
  obs::telemetry::FlightDumpPolicy flight_dump_;
  /// The durability WAL (inert unless opts_.durable is enabled). Owns its
  /// own leaf lock; appended to both under and outside mutex_.
  SessionJournal journal_;
  /// Startup crash-recovery re-admissions (empty when durability is off).
  std::vector<RecoveryOutcome> recoveries_;

  // Lock order (DESIGN.md §14): the manager's mutex (rank
  // kSessionManager = 10) is the lowest-ranked lock in the service stack.
  // Sessions running under it take MeshStore, HealthMonitor, ThreadPool,
  // and observability locks — all higher-ranked — but never the reverse:
  // nothing that holds a pool or monitor lock may call back into the
  // manager. The LockOrderRegistry enforces this at runtime under
  // MPAS_LOCK_CHECK=1.
  mutable util::Mutex mutex_{"service.session_manager",
                             util::lockrank::kSessionManager};
  util::ConditionVariable work_cv_;  // workers: queue non-empty / shutdown
  util::ConditionVariable done_cv_;  // drain: a session went terminal
  FairQueue queue_ MPAS_GUARDED_BY(mutex_);
  std::map<std::uint64_t, std::unique_ptr<Record>> records_
      MPAS_GUARDED_BY(mutex_);
  ServiceStats stats_ MPAS_GUARDED_BY(mutex_);
  Real outstanding_total_ MPAS_GUARDED_BY(mutex_) = 0;
  std::map<std::string, Real> outstanding_by_tenant_ MPAS_GUARDED_BY(mutex_);
  std::uint64_t next_id_ MPAS_GUARDED_BY(mutex_) = 1;
  std::uint64_t active_ MPAS_GUARDED_BY(mutex_) = 0;  // inside run_one
  bool paused_ MPAS_GUARDED_BY(mutex_) = false;
  bool shutdown_ MPAS_GUARDED_BY(mutex_) = false;
  /// Dumps decided by finish_locked, written by flush_flight_dumps().
  std::vector<PendingDump> pending_dumps_ MPAS_GUARDED_BY(mutex_);

  std::vector<std::thread> workers_;
};

}  // namespace mpas::service
