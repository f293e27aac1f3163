// One admitted session, end to end: build the self-healing hybrid on the
// shared mesh, step it with cooperative cancellation and modeled-deadline
// checks at every step boundary, and hash the final state for the
// bitwise-correctness audit. All service metrics the session publishes
// are scoped "service.session<id>." so co-resident sessions stay
// distinguishable in the process-global registry; the manager erases the
// scope once the session is terminal.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "core/schedule.hpp"
#include "machine/machine_model.hpp"
#include "mesh/mesh.hpp"
#include "obs/telemetry/flight_recorder.hpp"
#include "resilience/health/hybrid.hpp"
#include "service/request.hpp"
#include "sw/fields.hpp"

namespace mpas::service {

struct ResumeState;
class SessionCheckpointer;

/// "service.session<id>.": the prefix of every metric the session's
/// self-healing hybrid publishes.
std::string session_metric_scope(std::uint64_t id);

/// FNV-1a over the H and U field bytes — the session's solution digest.
std::uint64_t state_hash(const sw::FieldStore& fields);

/// Digest of the fault-free reference run for (level, case, steps):
/// computed once per key with a plain single-schedule SwModel, memoized
/// process-wide. A healed or degraded-schedule session is bitwise correct
/// iff its state_hash equals this.
std::uint64_t reference_hash(int mesh_level, int test_case, int steps);

struct SessionRunContext {
  std::uint64_t id = 0;
  /// The effective (possibly degraded) request.
  const SessionRequest* request = nullptr;
  const mesh::VoronoiMesh* mesh = nullptr;
  /// Cooperative cancel flag, owned by the manager; checked between steps.
  const std::atomic<bool>* cancel = nullptr;
  /// Modeled seconds already charged to this session (retry backoff from
  /// earlier attempts) — counts against the deadline.
  Real modeled_seconds_spent = 0;
  core::SimOptions sim{machine::paper_platform()};
  /// Per-session black box, owned by the manager (null = not recording).
  /// The run records health transitions, replans, and deadline/cancel
  /// decisions into it.
  obs::telemetry::FlightRecorder* flight = nullptr;
  /// Crash-recovery restore point (null = fresh session). When set with a
  /// non-negative step, the state fields are restored before
  /// initialize() and the step loop starts there.
  const ResumeState* resume = nullptr;
  /// Durable checkpointing hook (null = durability off — the disabled
  /// path costs exactly this one branch per step).
  SessionCheckpointer* durable = nullptr;
};

/// Run the session to a terminal state. Throws TransientError for
/// retryable faults (the manager backs off and re-runs) and fills
/// `result` in place otherwise — including Cancelled/TimedOut honored at
/// step boundaries. Never leaves shared state behind: the model, pool,
/// and offload runtime die with the call frame.
void run_session(const SessionRunContext& ctx, SessionResult& result);

}  // namespace mpas::service
