// Simulation-as-a-service request/result vocabulary.
//
// A SessionRequest names a complete shallow-water experiment (mesh level,
// Williamson test case, step count, output cadence) plus the service-level
// contract around it: which tenant pays for it, how important it is, how
// long (in modeled seconds — the deterministic clock every admission and
// deadline decision keys on) it may take, and whether the service may run
// it at reduced fidelity when overloaded. A SessionResult is the full
// post-mortem: terminal state, explicit reason, what fidelity actually
// ran, and the solution hash for bitwise-correctness audits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace mpas::service {

/// Terminal and in-flight states of a session. Rejected/Shed sessions
/// never ran; every other terminal state owns an explicit reason string.
enum class SessionState : int {
  Queued = 0,
  Running = 1,
  Completed = 2,
  Rejected = 3,   // refused at admission (with reason)
  Shed = 4,       // admitted, then evicted from the queue by load-shedding
  Cancelled = 5,  // cooperative cancel honored at a step boundary
  TimedOut = 6,   // modeled deadline exceeded at a step boundary
  Failed = 7,     // threw; torn down cleanly, co-residents undisturbed
};

const char* to_string(SessionState state);
/// True for states a session can never leave.
bool is_terminal(SessionState state);

/// Machine-readable companion to SessionResult::reason. The strings stay
/// the human-facing explanation; the code is what the event log and
/// obs_query aggregate on, so no consumer ever parses reason prose.
enum class ReasonCode : int {
  None = 0,
  // Admission verdicts (which rung of the ladder admitted the session).
  AdmitGuarantee = 1,      // fit within the tenant's guaranteed share
  AdmitBorrowed = 2,       // borrowed spare capacity beyond the guarantee
  AdmitReclaimed = 3,      // admitted after reclaiming borrowed slots
  AdmitAfterShed = 4,      // admitted after shedding lower-priority work
  AdmitDegraded = 5,       // admitted at reduced fidelity
  // Refusals.
  RejectBackpressure = 6,  // tenant queue bound hit before pricing
  RejectOverload = 7,      // nothing left to reclaim/shed/degrade
  RejectShutdown = 8,      // service no longer accepting work
  // Evictions of queued sessions.
  ShedReclaimed = 9,       // borrowed slot reclaimed by a guarantee claim
  ShedPriority = 10,       // displaced by a higher-priority submission
  // Terminal fates of sessions that ran (or were asked to stop).
  DeadlineExceeded = 11,   // modeled deadline hit at a step boundary
  TransientExhausted = 12, // retries/backoff used up the attempt budget
  SessionFault = 13,       // threw a non-transient exception
  CancelledByUser = 14,    // cooperative cancel honored
  ServiceShutdown = 15,    // torn down by shutdown()
  Completed = 16,          // ran to the last step
};

const char* to_string(ReasonCode code);

/// Deterministic fault plan for one session (soak campaigns and tests).
struct ChaosSpec {
  /// Throw a TransientError on the first N run attempts — exercises the
  /// manager's exponential-backoff retry without burning real work.
  int fail_first_attempts = 0;
  /// Report a hard accelerator fault to the session's HealthMonitor after
  /// this step (-1 = never): the session quarantines its device and
  /// replans mid-run while co-resident sessions keep their hybrid plans.
  std::int64_t quarantine_accel_at_step = -1;
};

struct SessionRequest {
  std::string tenant = "default";
  int mesh_level = 3;   // icosahedral subdivision level
  int test_case = 2;    // Williamson test case number
  int steps = 10;
  int output_every = 1;  // write (modeled) output every N steps; 0 = never
  /// Larger = more important. Load-shedding evicts the lowest priority
  /// first; ties broken against the youngest.
  int priority = 1;
  /// Modeled-seconds budget for the whole run, retries and backoff
  /// included (0 = no deadline). Checked at step boundaries only — steps
  /// are never aborted midway.
  Real deadline_modeled_s = 0;
  /// Permit the degraded-fidelity rung of the admission ladder (one mesh
  /// level coarser, output cadence halved) instead of rejection.
  bool allow_degraded = true;
  int threads = 0;  // worker threads for the session's numerics pool
  ChaosSpec chaos;
};

struct SessionResult {
  std::uint64_t id = 0;
  std::string tenant;
  SessionState state = SessionState::Queued;
  /// Why the session is where it is (the admission verdict while queued
  /// or running, shed and degradation explanations, exception text,
  /// "completed") — never empty for a session that has ended.
  std::string reason;
  /// Machine-readable reason — what reason says, as an enum.
  ReasonCode reason_code = ReasonCode::None;
  bool degraded = false;
  int mesh_level_used = -1;
  int test_case_used = 0;
  int output_every_used = 0;
  int steps_done = 0;
  int replans = 0;   // healing replans during the run
  int attempts = 0;  // 1 = first try succeeded
  int outputs_written = 0;
  /// Modeled seconds actually consumed (steps + outputs + retry backoff).
  Real modeled_seconds = 0;
  /// Modeled seconds the admission controller priced and reserved.
  Real admitted_cost = 0;
  /// FNV-1a over the final H and U fields — equal to the reference hash
  /// for the same (level, case, steps) iff the run was bitwise correct.
  std::uint64_t state_hash = 0;
  /// Modeled seconds of each completed step (the soak's EWMA-band check
  /// that co-resident sessions were undisturbed by a neighbor's fault).
  std::vector<Real> step_modeled_seconds;
  /// Crash-recovery provenance: this session was re-admitted by the
  /// RecoveryManager and resumed from a durable checkpoint.
  bool recovered = false;
  /// Step the durable restore landed on (-1 = started from step 0).
  std::int64_t resumed_from_step = -1;
  /// Session id (and journal epoch) this run continued.
  std::uint64_t recovered_from = 0;
  int recovered_from_epoch = 0;
  /// A recovered session whose final state hash does NOT match the
  /// uninterrupted reference trajectory. Always false for healthy
  /// recoveries; obs_query mode=recovery and CI fail on any true.
  bool diverged = false;
};

}  // namespace mpas::service
