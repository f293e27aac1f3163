#include "service/session.hpp"

#include <map>
#include <span>
#include <sstream>
#include <tuple>

#include "mesh/mesh_cache.hpp"
#include "obs/trace.hpp"
#include "service/durable_session.hpp"
#include "service/facts.hpp"
#include "service/journal.hpp"  // hash_hex
#include "service/recovery.hpp"
#include "sw/model.hpp"
#include "sw/state_codec.hpp"
#include "sw/testcases.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"
#include "util/lock_ranks.hpp"
#include "util/logging.hpp"
#include "util/mutex.hpp"

namespace mpas::service {

namespace {

sw::SwParams params_for(const sw::TestCase& tc,
                        const mesh::VoronoiMesh& mesh) {
  sw::SwParams params;
  params.dt = sw::suggested_time_step(tc, mesh, 0.4);
  return params;
}

}  // namespace

std::uint64_t state_hash(const sw::FieldStore& fields) {
  std::uint64_t hash = util::kFnvOffset;
  for (const sw::FieldId id : {sw::FieldId::H, sw::FieldId::U}) {
    const std::span<const Real> values = fields.get(id);
    hash = util::fnv1a(hash, values.data(), values.size_bytes());
  }
  return hash;
}

std::uint64_t reference_hash(int mesh_level, int test_case, int steps) {
  using Key = std::tuple<int, int, int>;
  static util::Mutex mutex{"service.session_reference",
                           util::lockrank::kSessionReference};
  static std::map<Key, std::uint64_t> memo;

  const Key key{mesh_level, test_case, steps};
  {
    const util::LockGuard lock(mutex);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
  }
  // Reference outside the lock: a level-6 run must not serialize lookups
  // for other keys. A racing duplicate computes the same value.
  const auto mesh = mesh::get_global_mesh(mesh_level);
  const auto tc = sw::make_test_case(test_case);
  sw::SwModel ref(*mesh, params_for(*tc, *mesh));
  sw::apply_initial_conditions(*tc, *mesh, ref.fields());
  ref.initialize();
  ref.run(steps);
  const std::uint64_t hash = state_hash(ref.fields());

  const util::LockGuard lock(mutex);
  memo.emplace(key, hash);
  return hash;
}

std::string session_metric_scope(std::uint64_t id) {
  return "service.session" + std::to_string(id) + ".";
}

void run_session(const SessionRunContext& ctx, SessionResult& result) {
  MPAS_CHECK(ctx.request != nullptr && ctx.mesh != nullptr);
  const SessionRequest& req = *ctx.request;
  using obs::telemetry::WideEvent;
  obs::telemetry::FlightRecorder* flight = ctx.flight;
  const auto fact = [&ctx, &req](const char* kind) {
    return WideEvent(kind, req.tenant, ctx.id);
  };

  if (result.attempts <= req.chaos.fail_first_attempts) {
    std::ostringstream os;
    os << "chaos: injected transient launch fault (attempt "
       << result.attempts << " of " << req.chaos.fail_first_attempts
       << " doomed)";
    throw TransientError(os.str());
  }

  const auto tc = sw::make_test_case(req.test_case);
  resilience::health::SelfHealingHybrid::Options hopts;
  hopts.sim = ctx.sim;
  hopts.threads = req.threads;
  hopts.metric_scope = session_metric_scope(ctx.id);
  resilience::health::SelfHealingHybrid sut(*ctx.mesh,
                                            params_for(*tc, *ctx.mesh), hopts);
  // Black-box feed: every health transition this session's monitor sees
  // is a fact as it happens. The listener runs *after* the monitor
  // releases its mutex, so recording here never nests the recorder's lock
  // under the monitor's.
  sut.monitor().add_transition_listener(
      [flight, fact](const resilience::health::Transition& t) {
        record_fact(fact("health")
                        .add("entity", t.entity)
                        .add("from", to_string(t.from))
                        .add("to", to_string(t.to))
                        .add("reason", t.reason)
                        .add("step", t.step),
                    flight);
      });
  sw::apply_initial_conditions(*tc, *ctx.mesh, sut.model().fields());
  int start_step = 0;
  if (ctx.resume != nullptr) {
    // Crash recovery: overwrite the state fields with the durable snapshot
    // *before* initialize(), which recomputes every diagnostic from them —
    // the restart protocol of sw/state_codec.hpp, which
    // StateCodec.SnapshotRestoreContinuesBitwise proves continues
    // bit-for-bit.
    result.recovered = true;
    result.recovered_from = ctx.resume->from_id;
    result.recovered_from_epoch = ctx.resume->from_epoch;
    if (ctx.resume->step >= 0) {
      sw::restore_state(ctx.resume->image, 0, sut.model().fields());
      const std::uint64_t restored = state_hash(sut.model().fields());
      MPAS_CHECK_MSG(restored == ctx.resume->expect_hash,
                     "durable restore hash mismatch for session "
                         << ctx.id << ": restored " << restored
                         << ", checkpoint recorded " << ctx.resume->expect_hash);
      start_step = static_cast<int>(ctx.resume->step);
      result.resumed_from_step = ctx.resume->step;
    }
    // checkpoint_step -1: no durable generation survived, rerun from 0.
    record_fact(fact("recovery")
                    .add("phase", "resume")
                    .add("step", start_step)
                    .add("checkpoint_step", ctx.resume->step)
                    .add("generation", ctx.resume->generation)
                    .add("recovered_from", hash_hex(ctx.resume->from_id))
                    .add("recovered_from_epoch", ctx.resume->from_epoch),
                flight);
  }
  sut.initialize();

  // Per-session trace track: concurrent sessions writing one MPAS_TRACE
  // file must stay distinguishable, so each session owns a named track
  // and records its step timeline there.
  auto& tracer = obs::TraceRecorder::global();
  int track = -1;
  if (tracer.enabled()) {
    std::ostringstream os;
    os << "session " << ctx.id << " [" << req.tenant << "]";
    track = tracer.allocate_track(os.str());
    tracer.set_lane_name(track, 0, "steps");
  }

  const std::int64_t bytes = static_cast<std::int64_t>(sizeof(Real)) *
                             (ctx.mesh->num_cells + ctx.mesh->num_edges);
  const Real output_seconds = ctx.sim.platform.link.time(bytes);

  Real spent = ctx.modeled_seconds_spent;
  result.steps_done = 0;
  result.outputs_written = 0;

  int last_replans = sut.replans();

  for (int s = start_step; s < req.steps; ++s) {
    // Step boundary: the only place cancellation, deadlines, and injected
    // device faults are honored — a step in flight always completes.
    if (ctx.cancel != nullptr &&
        ctx.cancel->load(std::memory_order_acquire)) {
      result.state = SessionState::Cancelled;
      std::ostringstream os;
      os << "cancelled at step boundary " << s << " of " << req.steps;
      result.reason = os.str();
      result.reason_code = ReasonCode::CancelledByUser;
      result.modeled_seconds = spent;
      record_fact(fact("cancel").add("step", s).add("reason", result.reason),
                  flight);
      return;
    }
    if (req.deadline_modeled_s > 0 &&
        spent + sut.modeled_step_seconds() > req.deadline_modeled_s) {
      result.state = SessionState::TimedOut;
      std::ostringstream os;
      os << "deadline of " << req.deadline_modeled_s << " modeled s "
         << (s == 0 ? "exhausted before the first step (retry backoff)"
                    : "would be exceeded by the next step")
         << " after " << s << " of " << req.steps << " steps";
      result.reason = os.str();
      result.reason_code = ReasonCode::DeadlineExceeded;
      result.modeled_seconds = spent;
      result.replans = sut.replans();
      record_fact(fact("deadline_check")
                      .add("step", s)
                      .add("needed_modeled_s",
                           spent + sut.modeled_step_seconds())
                      .add("deadline_modeled_s", req.deadline_modeled_s)
                      .add("reason", result.reason),
                  flight);
      return;
    }
    if (s == req.chaos.quarantine_accel_at_step)
      sut.monitor().observe_failure("accel", s,
                                    "chaos: injected device fault");

    const double step_start_us = tracer.now_us();
    sut.step();
    const Real step_seconds = sut.modeled_step_seconds();
    if (track >= 0) {
      obs::TraceEvent ev;
      ev.kind = obs::TraceEvent::Kind::Complete;
      ev.name = "step";
      // A fact's attrs render as trace args too.
      ev.args = attrs_json(
          WideEvent().add("step", s).add("modeled_s", step_seconds));
      ev.ts_us = step_start_us;
      ev.dur_us = tracer.now_us() - step_start_us;
      ev.track = track;
      ev.lane = 0;
      tracer.record(std::move(ev));
    }
    spent += step_seconds;
    result.steps_done = s + 1;

    const int replans = sut.replans();
    if (replans != last_replans) {
      record_fact(fact("replan").add("step", s).add("replans", replans),
                  flight);
      last_replans = replans;
    }

    if (req.output_every > 0 && (s + 1) % req.output_every == 0) {
      result.outputs_written += 1;
      spent += output_seconds;
    }

    // Durability hook: stage a state snapshot when the cadence hits.
    // The final step is excluded — the terminal journal record supersedes
    // any checkpoint there. Disabled path: this one branch.
    if (ctx.durable != nullptr && s + 1 < req.steps)
      ctx.durable->on_step(s + 1, sut.model().fields());
  }

  result.state = SessionState::Completed;
  result.reason = "completed";
  result.reason_code = ReasonCode::Completed;
  result.modeled_seconds = spent;
  result.replans = sut.replans();
  result.state_hash = state_hash(sut.model().fields());

  if (result.recovered) {
    // The recovery contract: a resumed trajectory must land bitwise on the
    // uninterrupted run. The reference is memoized, so repeated audits of
    // one (level, case, steps) key cost one extra run process-wide.
    result.diverged = result.state_hash !=
                      reference_hash(req.mesh_level, req.test_case, req.steps);
    record_fact(fact("recovery")
                    .add("phase", "audit")
                    .add("step", req.steps)
                    .add("diverged", result.diverged),
                flight);
    if (result.diverged)
      MPAS_LOG_ERROR << "session " << ctx.id
                     << " recovered but diverged from the reference "
                        "trajectory (hash "
                     << result.state_hash << ")";
  }
}

}  // namespace mpas::service
