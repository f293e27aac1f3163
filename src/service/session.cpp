#include "service/session.hpp"

#include <map>
#include <span>
#include <sstream>
#include <tuple>

#include "mesh/mesh_cache.hpp"
#include "obs/telemetry/event_log.hpp"
#include "obs/trace.hpp"
#include "service/durable_session.hpp"
#include "service/recovery.hpp"
#include "sw/model.hpp"
#include "sw/state_codec.hpp"
#include "sw/testcases.hpp"
#include "util/error.hpp"
#include "util/lock_ranks.hpp"
#include "util/logging.hpp"
#include "util/mutex.hpp"

namespace mpas::service {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_mix(std::uint64_t& hash, std::span<const Real> values) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  const std::size_t n = values.size() * sizeof(Real);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
}

sw::SwParams params_for(const sw::TestCase& tc,
                        const mesh::VoronoiMesh& mesh) {
  sw::SwParams params;
  params.dt = sw::suggested_time_step(tc, mesh, 0.4);
  return params;
}

}  // namespace

std::uint64_t state_hash(const sw::FieldStore& fields) {
  std::uint64_t hash = kFnvOffset;
  fnv_mix(hash, fields.get(sw::FieldId::H));
  fnv_mix(hash, fields.get(sw::FieldId::U));
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

void run_session(const SessionRunContext& ctx, SessionResult& result) {
  MPAS_CHECK(ctx.request != nullptr && ctx.mesh != nullptr);
  const SessionRequest& req = *ctx.request;
  namespace telemetry = obs::telemetry;
  telemetry::FlightRecorder* flight = ctx.flight;

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
  hopts.metric_scope = "service.session" + std::to_string(ctx.id) + ".";
  resilience::health::SelfHealingHybrid sut(*ctx.mesh,
                                            params_for(*tc, *ctx.mesh), hopts);
  if (flight != nullptr) {
    // Black-box feed: every health transition this session's monitor sees
    // lands in the ring (and the event log) as it happens. The listener
    // runs *after* the monitor releases its mutex, so recording here never
    // nests the recorder's lock under the monitor's.
    const std::uint64_t id = ctx.id;
    const std::string tenant = req.tenant;
    sut.monitor().add_transition_listener(
        [flight, id, tenant](const resilience::health::Transition& t) {
          flight->record(telemetry::FlightKind::HealthTransition,
                         static_cast<long>(t.step),
                         t.entity + ": " + to_string(t.from) + " -> " +
                             to_string(t.to) + " (" + t.reason + ")");
          auto& events = telemetry::EventLog::global();
          if (events.enabled())
            events.emit("health", tenant, id,
                        obs::trace_arg("entity", t.entity) + "," +
                            obs::trace_arg("from",
                                           std::string(to_string(t.from))) +
                            "," +
                            obs::trace_arg("to",
                                           std::string(to_string(t.to))) +
                            "," + obs::trace_arg("step", t.step));
        });
  }
  if (flight != nullptr) {
    // Same black-box treatment for model-drift alarms: the earliest gray-
    // failure breadcrumb a postmortem has (the listener runs after the
    // drift monitor released its mutex — same re-entrancy contract as the
    // health transition listener above).
    const std::uint64_t id = ctx.id;
    const std::string tenant = req.tenant;
    sut.drift().add_alarm_listener(
        [flight, id, tenant](const obs::profiling::DriftAlarm& a) {
          std::ostringstream os;
          os << a.channel << ": measured/modeled drifted to " << a.ratio
             << "x (baseline " << a.baseline << ")";
          flight->record(telemetry::FlightKind::DriftAlarm,
                         static_cast<long>(a.step), os.str(),
                         static_cast<double>(a.ratio),
                         static_cast<double>(a.baseline));
          auto& events = telemetry::EventLog::global();
          if (events.enabled())
            events.emit("drift", tenant, id,
                        obs::trace_arg("channel", a.channel) + "," +
                            obs::trace_arg("ratio", a.ratio) + "," +
                            obs::trace_arg("step", a.step));
        });
  }
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
    if (flight != nullptr) {
      std::ostringstream os;
      os << "resumed from "
         << (ctx.resume->step >= 0 ? "durable step " +
                                         std::to_string(ctx.resume->step)
                                   : std::string("step 0 (no checkpoint)"))
         << " of session " << ctx.resume->from_id << " (epoch "
         << ctx.resume->from_epoch << ")";
      flight->record(telemetry::FlightKind::Recovery,
                     static_cast<long>(start_step), os.str(),
                     static_cast<double>(ctx.resume->generation));
    }
    MPAS_TRACE_INSTANT_ARGS(
        "durable:resume",
        obs::trace_arg("id", static_cast<std::int64_t>(ctx.id)) + "," +
            obs::trace_arg("from_step",
                           static_cast<std::int64_t>(start_step)));
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
  result.step_modeled_seconds.clear();

  // Step-time EWMA for excursion records: seeded after a short warmup so
  // the first steps (cold caches, initial replans) don't pollute the band.
  constexpr int kEwmaWarmupSteps = 3;
  constexpr Real kEwmaAlpha = 0.3;
  constexpr Real kExcursionLow = 0.8;
  constexpr Real kExcursionHigh = 1.2;
  Real ewma = 0;
  int ewma_samples = 0;
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
      if (flight != nullptr)
        flight->record(telemetry::FlightKind::Cancel, s, result.reason);
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
      result.worst_drift_ratio = sut.drift().worst_ratio();
      result.drift_alarms = sut.drift().alarms();
      if (flight != nullptr)
        flight->record(telemetry::FlightKind::DeadlineCheck, s,
                       result.reason, spent + sut.modeled_step_seconds(),
                       req.deadline_modeled_s);
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
      ev.args = obs::trace_arg("step", static_cast<std::int64_t>(s)) + "," +
                obs::trace_arg("modeled_s", step_seconds);
      ev.ts_us = step_start_us;
      ev.dur_us = tracer.now_us() - step_start_us;
      ev.track = track;
      ev.lane = 0;
      tracer.record(std::move(ev));
    }
    spent += step_seconds;
    result.step_modeled_seconds.push_back(step_seconds);
    result.steps_done = s + 1;

    const int replans = sut.replans();
    if (replans != last_replans) {
      if (flight != nullptr)
        flight->record(telemetry::FlightKind::Replan, s,
                       "schedule swap after health transition",
                       static_cast<double>(replans));
      auto& events = telemetry::EventLog::global();
      if (events.enabled())
        events.emit("replan", req.tenant, ctx.id,
                    obs::trace_arg("step", static_cast<std::int64_t>(s)) +
                        "," +
                        obs::trace_arg("replans",
                                       static_cast<std::int64_t>(replans)));
      last_replans = replans;
      // The plan changed: the old EWMA band describes the old schedule.
      ewma = 0;
      ewma_samples = 0;
    }

    // EWMA excursion: a step that left the learned band is exactly the
    // breadcrumb a postmortem needs, even when the run still completed.
    if (ewma_samples >= kEwmaWarmupSteps) {
      const Real ratio = step_seconds / ewma;
      if ((ratio < kExcursionLow || ratio > kExcursionHigh) &&
          flight != nullptr) {
        flight->record(telemetry::FlightKind::StepExcursion, s,
                       "step time left the EWMA band", step_seconds, ewma);
      }
    }
    ewma = ewma_samples == 0 ? step_seconds
                             : (1 - kEwmaAlpha) * ewma +
                                   kEwmaAlpha * step_seconds;
    ewma_samples += 1;

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
  result.reason_code = ReasonCode::Completed;
  result.modeled_seconds = spent;
  result.replans = sut.replans();
  result.worst_drift_ratio = sut.drift().worst_ratio();
  result.drift_alarms = sut.drift().alarms();
  result.state_hash = state_hash(sut.model().fields());

  if (result.recovered) {
    // The recovery contract: a resumed trajectory must land bitwise on the
    // uninterrupted run. The reference is memoized, so repeated audits of
    // one (level, case, steps) key cost one extra run process-wide.
    result.diverged = result.state_hash !=
                      reference_hash(req.mesh_level, req.test_case, req.steps);
    if (flight != nullptr)
      flight->record(telemetry::FlightKind::Recovery, req.steps,
                     result.diverged
                         ? "recovered trajectory DIVERGED from reference"
                         : "recovered trajectory bitwise-identical to "
                           "reference");
    if (result.diverged)
      MPAS_LOG_ERROR << "session " << ctx.id
                     << " recovered but diverged from the reference "
                        "trajectory (hash "
                     << result.state_hash << ")";
  }
}

}  // namespace mpas::service
