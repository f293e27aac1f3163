#include "service/session_manager.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>

#include "analysis/lock_order.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/fault_env.hpp"
#include "service/facts.hpp"
#include "service/session.hpp"
#include "util/error.hpp"
#include "util/lock_ranks.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace mpas::service {

namespace telemetry = obs::telemetry;
using telemetry::WideEvent;

// The manager dispatches sessions that run on per-session thread pools;
// its lock must rank strictly below theirs (see DESIGN.md §14).
static_assert(util::lockrank::kSessionManager < util::lockrank::kThreadPool,
              "SessionManager's mutex must be acquirable before ThreadPool's");

SessionManager::SessionManager(ServiceOptions opts)
    : opts_(opts),
      costs_(opts.sim),
      admission_(opts.admission, &costs_),
      slo_(opts.slo),
      flight_dump_(opts.flight_dump) {
  // Arm the lock-order detector when MPAS_LOCK_CHECK=1 (idempotent; near
  // zero cost when the variable is unset).
  analysis::LockOrderRegistry::install_from_env();
  MPAS_CHECK_MSG(opts_.workers >= 1, "service needs at least one worker");
  MPAS_CHECK_MSG(opts_.max_attempts >= 1, "need at least one attempt");
  if (opts_.durable.enabled()) {
    // Durability boot: fold the journal once, open it for append as the
    // next epoch, then re-admit whatever a dead epoch left unfinished —
    // all before any new work can race the ids.
    std::filesystem::create_directories(opts_.durable.dir);
    JournalReplay replay = replay_journal(opts_.durable.journal_path());
    journal_.open(opts_.durable.journal_path(), replay.epochs + 1);
    // The fold now ends at the epoch line open appended, as a read after
    // open would: every session in it belongs to a dead epoch.
    if (journal_.enabled()) replay.epochs = journal_.epoch();
    RecoveryManager recovery(opts_.durable, &journal_);
    recoveries_ = recovery.recover(*this, replay);
  }
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

SessionManager::~SessionManager() { shutdown(); }

void SessionManager::set_tenant_weight(const std::string& tenant,
                                       Real weight) {
  const util::LockGuard lock(mutex_);
  admission_.set_tenant_weight(tenant, weight);
  queue_.set_weight(tenant, weight);
}

AdmissionInput SessionManager::admission_input_locked(
    const std::string& tenant) const {
  AdmissionInput input;
  input.outstanding_total = outstanding_total_;
  input.outstanding_by_tenant = outstanding_by_tenant_;
  input.queued_of_tenant = queue_.size_of_tenant(tenant);
  for (const QueueEntry& e : queue_.snapshot())
    input.queued.push_back(
        {e.id, e.tenant, e.priority, e.cost, e.borrowed, e.seq});
  return input;
}

std::uint64_t SessionManager::submit(SessionRequest request) {
  std::uint64_t id = 0;
  {
    const util::LockGuard lock(mutex_);
    id = submit_locked(std::move(request));
  }
  // A shed verdict inside submit_locked may have queued black-box dumps;
  // the file I/O happens here, after the lock is gone.
  flush_flight_dumps();
  return id;
}

std::uint64_t SessionManager::submit_recovered(SessionRequest request,
                                               ResumeState resume) {
  std::uint64_t id = 0;
  {
    const util::LockGuard lock(mutex_);
    id = submit_locked(std::move(request), std::move(resume));
  }
  flush_flight_dumps();
  return id;
}

std::uint64_t SessionManager::submit_locked(
    SessionRequest request, std::optional<ResumeState> resume) {
  const std::uint64_t id = next_id_++;
  auto rec = std::make_unique<Record>();
  rec->effective = request;
  rec->result.id = id;
  rec->result.tenant = request.tenant;
  rec->result.mesh_level_used = request.mesh_level;
  rec->result.test_case_used = request.test_case;
  rec->result.output_every_used = request.output_every;
  stats_.submitted += 1;

  record_fact(WideEvent("submit", request.tenant, id)
                  .add("level", request.mesh_level)
                  .add("steps", request.steps)
                  .add("priority", request.priority));

  if (shutdown_) {
    rec->result.state = SessionState::Rejected;
    rec->result.reason = "service is shutting down";
    rec->result.reason_code = ReasonCode::RejectShutdown;
    stats_.rejected += 1;
    record_fact(WideEvent("reject", request.tenant, id)
                    .add("code", to_string(ReasonCode::RejectShutdown))
                    .add("reason", rec->result.reason));
    records_.emplace(id, std::move(rec));
    publish_locked();
    done_cv_.notify_all();
    return id;
  }

  // The admission decision is itself under an SLO: wall-time it, and feed
  // the tenant's current burn rate in as a ladder input.
  AdmissionInput input = admission_input_locked(request.tenant);
  input.tenant_burn_rate = slo_.worst_burn_rate(request.tenant);
  const double decide_start_s = monotonic_seconds();
  const AdmissionOutcome verdict = admission_.decide(request, input);
  const double latency_us =
      (monotonic_seconds() - decide_start_s) * 1e6;
  record_slo_locked(request.tenant,
                    telemetry::SloDimension::AdmissionLatency,
                    latency_us <= slo_.policy().admission_latency_budget_us,
                    id);

  if (verdict.action == AdmissionOutcome::Action::Reject) {
    rec->result.state = SessionState::Rejected;
    rec->result.reason = verdict.reason;
    rec->result.reason_code = verdict.reason_code;
    rec->result.admitted_cost = verdict.cost;
    stats_.rejected += 1;
    MPAS_LOG_WARN << "session " << id << " rejected: " << verdict.reason;
    record_fact(WideEvent("reject", request.tenant, id)
                    .add("code", to_string(verdict.reason_code))
                    .add("reason", verdict.reason)
                    .add("cost", verdict.cost)
                    .add("latency_us", latency_us));
    records_.emplace(id, std::move(rec));
    publish_locked();
    done_cv_.notify_all();
    return id;
  }

  // Apply the rehearsed evictions before taking the freed capacity.
  for (const ShedOutcome& shed : verdict.shed) {
    const auto it = records_.find(shed.id);
    if (it == records_.end() || !queue_.remove(shed.id)) continue;
    stats_.shed += 1;
    // A shed session's work was never done: the fairness ledger must not
    // credit its tenant for it.
    stats_.admitted_seconds_by_tenant[it->second->result.tenant] -=
        it->second->result.admitted_cost;
    record_fact(WideEvent("shed", it->second->result.tenant, shed.id)
                    .add("code", to_string(shed.code))
                    .add("displaced_by", id),
                it->second->flight.get());
    finish_locked(*it->second, SessionState::Shed, shed.reason, shed.code);
  }

  rec->effective = verdict.effective;
  rec->borrowed = verdict.borrowed;
  rec->result.state = SessionState::Queued;
  rec->result.reason = verdict.reason;
  rec->result.reason_code = verdict.reason_code;
  rec->result.admitted_cost = verdict.cost;
  rec->result.degraded =
      verdict.action == AdmissionOutcome::Action::AdmitDegraded;
  rec->result.mesh_level_used = verdict.effective.mesh_level;
  rec->result.test_case_used = verdict.effective.test_case;
  rec->result.output_every_used = verdict.effective.output_every;

  outstanding_total_ += verdict.cost;
  outstanding_by_tenant_[request.tenant] += verdict.cost;
  stats_.admitted += 1;
  if (rec->result.degraded) stats_.admitted_degraded += 1;
  stats_.admitted_seconds_by_tenant[request.tenant] += verdict.cost;
  record_slo_locked(request.tenant,
                    telemetry::SloDimension::DegradedFidelity,
                    !rec->result.degraded, id);

  // Every admitted session gets a black box; its first entry is the
  // admission verdict with the arithmetic that produced it. The same fact
  // is the durability WAL's admit record: it carries the *effective*
  // request — the exact experiment to re-run — so recovery can re-admit it
  // verbatim. The journal's lock is a leaf (rank above mutex_).
  rec->flight = std::make_unique<telemetry::FlightRecorder>();
  const SessionRequest& eff = verdict.effective;
  WideEvent admit(rec->result.degraded ? "admit_degraded" : "admit",
                  request.tenant, id);
  admit.add("code", to_string(verdict.reason_code))
      .add("reason", verdict.reason)
      .add("cost", verdict.cost)
      .add("budget", admission_.tenant_budget(request.tenant))
      .add("borrowed", verdict.borrowed)
      .add("latency_us", latency_us)
      .add("burn_rate", input.tenant_burn_rate)
      .add("mesh_level", eff.mesh_level)
      .add("test_case", eff.test_case)
      .add("steps", eff.steps)
      .add("output_every", eff.output_every)
      .add("priority", eff.priority)
      .add("deadline_modeled_s", eff.deadline_modeled_s)
      .add("threads", eff.threads)
      .add("allow_degraded", eff.allow_degraded);
  if (resume.has_value())
    admit.add("recovered_from", hash_hex(resume->from_id))
        .add("recovered_from_epoch", resume->from_epoch);
  record_fact(std::move(admit), rec->flight.get(), &journal_);
  if (resume.has_value()) {
    rec->result.recovered = true;
    rec->result.recovered_from = resume->from_id;
    rec->result.recovered_from_epoch = resume->from_epoch;
    rec->resume = std::move(resume);
  }

  queue_.push({id, request.tenant, verdict.effective.priority, verdict.cost,
               verdict.borrowed, id});
  records_.emplace(id, std::move(rec));
  publish_locked();
  work_cv_.notify_one();
  return id;
}

void SessionManager::worker_loop(int worker_index) {
  // Label this thread's measured trace lane so N workers interleaving in
  // one MPAS_TRACE file stay tellable apart.
  obs::TraceRecorder::global().set_thread_name(
      "service-worker-" + std::to_string(worker_index));
  for (;;) {
    std::uint64_t id = 0;
    {
      util::UniqueLock lock(mutex_);
      // Inline predicate loop (not a wait(lock, pred) lambda): the
      // thread-safety analysis checks this body with mutex_ held.
      while (!shutdown_ && (paused_ || queue_.empty())) work_cv_.wait(lock);
      if (shutdown_) return;
      const auto entry = queue_.pop();
      if (!entry) continue;
      id = entry->id;
      Record& rec = *records_.at(id);
      rec.result.state = SessionState::Running;
      active_ += 1;
      record_fact(WideEvent("dispatch", rec.result.tenant, id)
                      .add("worker", worker_index),
                  rec.flight.get());
      publish_locked();
    }
    run_one(id);
    {
      const util::LockGuard lock(mutex_);
      active_ -= 1;
      publish_locked();
      done_cv_.notify_all();
    }
  }
}

void SessionManager::run_one(std::uint64_t id) {
  SessionRequest req;
  Record* rec_ptr = nullptr;
  {
    const util::LockGuard lock(mutex_);
    rec_ptr = records_.at(id).get();  // unique_ptr: stable across inserts
    req = rec_ptr->effective;
  }
  Record& rec = *rec_ptr;

  // Durable checkpointer, created here — outside mutex_ — because opening
  // the store touches the filesystem. A recovered session inherits its
  // chain root's directory; a fresh one roots a new chain at (epoch, id).
  // rec.resume/rec.durable are safe to touch without the lock: only this
  // worker references them between dispatch and terminal.
  if (opts_.durable.enabled() && rec.durable == nullptr) {
    const std::string chain_dir =
        rec.resume.has_value()
            ? opts_.durable.session_dir(rec.resume->from_epoch,
                                        rec.resume->from_id)
            : opts_.durable.session_dir(journal_.epoch(), id);
    rec.durable = std::make_unique<SessionCheckpointer>(
        opts_.durable, chain_dir, id, req.tenant, &journal_,
        resilience::env_fault_injector());
  }
  Real backoff_spent = 0;
  for (int attempt = 1; attempt <= opts_.max_attempts; ++attempt) {
    try {
      SessionResult local;
      {
        const util::LockGuard lock(mutex_);
        rec.result.attempts = attempt;
        local = rec.result;
      }
      const MeshLease lease = meshes_.acquire(req.mesh_level);
      SessionRunContext ctx;
      ctx.id = id;
      ctx.request = &req;
      ctx.mesh = lease.get();
      ctx.cancel = &rec.cancel;
      ctx.modeled_seconds_spent = backoff_spent;
      ctx.sim = opts_.sim;
      ctx.flight = rec.flight.get();
      ctx.resume = rec.resume.has_value() ? &*rec.resume : nullptr;
      ctx.durable = rec.durable.get();
      run_session(ctx, local);

      {
        const util::LockGuard lock(mutex_);
        rec.result = local;
        finish_locked(rec, local.state, local.reason, local.reason_code);
      }
      after_terminal(rec);
      return;
    } catch (const TransientError& e) {
      // Exponential backoff in modeled seconds, charged to the deadline.
      const Real backoff =
          opts_.backoff_start_modeled_s * static_cast<Real>(1 << (attempt - 1));
      backoff_spent += backoff;
      bool terminal = false;
      {
        const util::LockGuard lock(mutex_);
        stats_.retries += 1;
        record_fact(WideEvent("retry", rec.result.tenant, id)
                        .add("attempt", attempt)
                        .add("reason", e.what())
                        .add("backoff_modeled_s", backoff)
                        .add("backoff_spent_modeled_s", backoff_spent),
                    rec.flight.get());
        std::ostringstream os;
        if (attempt == opts_.max_attempts) {
          os << "transient fault persisted through " << opts_.max_attempts
             << " attempts: " << e.what();
          rec.result.modeled_seconds = backoff_spent;
          finish_locked(rec, SessionState::Failed, os.str(),
                        ReasonCode::TransientExhausted);
          terminal = true;
        } else if (req.deadline_modeled_s > 0 &&
                   backoff_spent >= req.deadline_modeled_s) {
          os << "retry backoff (" << backoff_spent
             << " modeled s) exhausted the deadline after attempt " << attempt
             << ": " << e.what();
          rec.result.modeled_seconds = backoff_spent;
          finish_locked(rec, SessionState::TimedOut, os.str(),
                        ReasonCode::DeadlineExceeded);
          terminal = true;
        }
      }
      if (terminal) {
        after_terminal(rec);
        return;
      }
      MPAS_LOG_WARN << "session " << id << " attempt " << attempt
                    << " hit a transient fault (" << e.what()
                    << "); backing off " << backoff << " modeled s";
    } catch (const std::exception& e) {
      // Fault isolation: the throwing session unwinds completely (model,
      // pool, offload runtime, mesh lease all die with the frame) and is
      // the only session that ends Failed.
      {
        const util::LockGuard lock(mutex_);
        std::ostringstream os;
        os << "session threw: " << e.what();
        finish_locked(rec, SessionState::Failed, os.str(),
                      ReasonCode::SessionFault);
      }
      after_terminal(rec);
      return;
    }
  }
}

void SessionManager::after_terminal(Record& rec) {
  // A session the journal has marked terminal can never be recovered: its
  // checkpoint generations are dead weight, and its writer thread has
  // nothing left to write, so the checkpointer goes (joining the thread).
  if (rec.durable != nullptr) {
    rec.durable->retire();
    rec.durable.reset();
  }
  flush_flight_dumps();
}

void SessionManager::finish_locked(Record& rec, SessionState state,
                                   const std::string& reason,
                                   ReasonCode code) {
  rec.result.state = state;
  if (!reason.empty()) rec.result.reason = reason;
  if (code != ReasonCode::None) rec.result.reason_code = code;

  // Release the admission reservation (rejected sessions never held one).
  if (state != SessionState::Rejected) {
    const Real cost = rec.result.admitted_cost;
    outstanding_total_ = std::max<Real>(0, outstanding_total_ - cost);
    auto& mine = outstanding_by_tenant_[rec.result.tenant];
    mine = std::max<Real>(0, mine - cost);
  }

  switch (state) {
    case SessionState::Completed: stats_.completed += 1; break;
    case SessionState::Failed: stats_.failed += 1; break;
    case SessionState::Cancelled: stats_.cancelled += 1; break;
    case SessionState::TimedOut: stats_.timed_out += 1; break;
    // Shed/Rejected counters are bumped where the verdict is made.
    default: break;
  }

  // SLO samples describe sessions that actually ran (or were dispatched):
  // a Shed/Rejected session says nothing about deadline or error fates.
  const bool ran = state == SessionState::Completed ||
                   state == SessionState::Failed ||
                   state == SessionState::TimedOut ||
                   state == SessionState::Cancelled;
  if (ran && rec.result.recovered) {
    stats_.recovered += 1;
    if (rec.result.diverged) stats_.recovered_diverged += 1;
  }
  if (ran) {
    record_slo_locked(rec.result.tenant, telemetry::SloDimension::DeadlineMiss,
                      state != SessionState::TimedOut, rec.result.id);
    record_slo_locked(rec.result.tenant, telemetry::SloDimension::ErrorRate,
                      state != SessionState::Failed, rec.result.id);
  }

  // The terminal fact doubles as the durability WAL's terminal record: it
  // is what makes a session complete in the replay — without it the next
  // restart would re-admit this one. The journal's lock is a leaf above
  // mutex_; appending here is safe.
  record_fact(WideEvent("terminal", rec.result.tenant, rec.result.id)
                  .add("state", to_string(state))
                  .add("code", to_string(rec.result.reason_code))
                  .add("reason", rec.result.reason)
                  .add("steps_done", rec.result.steps_done)
                  .add("replans", rec.result.replans)
                  .add("modeled_s", rec.result.modeled_seconds)
                  .add("hash", hash_hex(rec.result.state_hash))
                  .add("recovered", rec.result.recovered)
                  .add("diverged", rec.result.diverged),
              rec.flight.get(), &journal_);

  // Black-box dump decision: terminal failure, quarantine involvement, or
  // dump-everything mode. The ring stays silent for healthy sessions. Only
  // the *decision* happens here — writing the file is I/O, which must not
  // run under mutex_, so the dump is queued for flush_flight_dumps().
  if (rec.flight != nullptr) {
    const bool failed =
        state == SessionState::Failed || state == SessionState::TimedOut;
    const bool quarantine_involved =
        rec.result.replans > 0 || rec.flight->count("health") > 0;
    // Crash-recovered sessions always leave a black box: the recovery
    // audit (obs_query mode=recovery) reads resume/divergence from it.
    const bool recovery_involved = rec.flight->count("recovery") > 0;
    if (flight_dump_.should_dump(failed,
                                 quarantine_involved || recovery_involved)) {
      const std::string trigger = failed               ? "failure"
                                  : recovery_involved  ? "recovery"
                                  : quarantine_involved ? "quarantine"
                                                        : "all";
      pending_dumps_.push_back(
          {rec.flight.get(), flight_dump_.dir,
           flight_dump_.dir + "/flight_session" +
               std::to_string(rec.result.id) + ".jsonl",
           rec.result.id, rec.result.tenant, trigger});
    }
  }

  publish_locked();
  done_cv_.notify_all();
  work_cv_.notify_all();  // freed capacity may unblock nothing, but a
                          // paused->resumed race must not strand workers
}

void SessionManager::flush_flight_dumps() {
  std::vector<PendingDump> dumps;
  {
    const util::LockGuard lock(mutex_);
    if (pending_dumps_.empty()) return;
    dumps.swap(pending_dumps_);
  }
  for (const PendingDump& dump : dumps) {
    std::error_code ec;
    std::filesystem::create_directories(dump.dir, ec);
    // The dump's first line is this fact, completed with the ring's counts
    // by dump_to_file and stamped before the write, so the event log
    // receives the same bytes once the file is on disk.
    WideEvent header("flight_dump", dump.tenant, dump.id);
    header.add("trigger", dump.trigger).add("path", dump.path);
    header.ts_s = monotonic_seconds();
    if (dump.flight->dump_to_file(dump.path, header)) {
      MPAS_LOG_INFO << "session " << dump.id << " flight recorder dumped to "
                    << dump.path << " (" << dump.trigger << ")";
      record_fact(std::move(header));
      const util::LockGuard lock(mutex_);
      stats_.flight_dumps += 1;
      publish_locked();
    } else {
      MPAS_LOG_WARN << "session " << dump.id << " flight dump to "
                    << dump.path << " failed";
    }
  }
}

void SessionManager::record_slo_locked(const std::string& tenant,
                                       telemetry::SloDimension dimension,
                                       bool ok, std::uint64_t session) {
  const telemetry::SloSample sample = slo_.record(tenant, dimension, ok);
  auto& registry = obs::MetricsRegistry::global();
  const std::string base =
      "service.slo." + tenant + "." + telemetry::to_string(dimension);
  registry.gauge(base + ".attainment").set(sample.attainment);
  registry.gauge(base + ".burn_rate").set(sample.burn_rate);
  if (!sample.breach) return;
  stats_.slo_breaches += 1;
  record_fact(WideEvent("slo_breach", tenant, session)
                  .add("dimension", telemetry::to_string(dimension))
                  .add("attainment", sample.attainment)
                  .add("burn_rate", sample.burn_rate));
}

bool SessionManager::cancel(std::uint64_t id) {
  bool cancelled = false;
  {
    const util::LockGuard lock(mutex_);
    const auto it = records_.find(id);
    if (it == records_.end() || is_terminal(it->second->result.state))
      return false;
    Record& rec = *it->second;
    if (rec.result.state == SessionState::Queued && queue_.remove(id)) {
      finish_locked(rec, SessionState::Cancelled, "cancelled while queued",
                    ReasonCode::CancelledByUser);
      cancelled = true;
    } else {
      rec.cancel.store(true, std::memory_order_release);
      return true;
    }
  }
  flush_flight_dumps();
  return cancelled;
}

void SessionManager::set_paused(bool paused) {
  const util::LockGuard lock(mutex_);
  paused_ = paused;
  if (!paused_) work_cv_.notify_all();
}

bool SessionManager::drain(long timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  util::UniqueLock lock(mutex_);
  // Inline predicate loop (not wait_until(lock, deadline, pred)): the
  // thread-safety analysis checks this body with mutex_ held.
  for (;;) {
    const bool drained =
        active_ == 0 && queue_.empty() &&
        std::all_of(records_.begin(), records_.end(), [](const auto& kv) {
          return is_terminal(kv.second->result.state);
        });
    if (drained) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    done_cv_.wait_until(lock, deadline);
  }
}

void SessionManager::shutdown() {
  {
    const util::LockGuard lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    // Queued sessions will never run; running ones are asked to stop at
    // their next step boundary.
    while (const auto entry = queue_.pop()) {
      Record& rec = *records_.at(entry->id);
      finish_locked(rec, SessionState::Cancelled, "service shutdown",
                    ReasonCode::ServiceShutdown);
    }
    for (auto& [id, rec] : records_)
      if (!is_terminal(rec->result.state))
        rec->cancel.store(true, std::memory_order_release);
    work_cv_.notify_all();
  }
  flush_flight_dumps();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Workers queue dumps on their way out (cancelled sessions); sweep the
  // stragglers now that every worker has joined.
  flush_flight_dumps();
}

SessionResult SessionManager::result(std::uint64_t id) const {
  const util::LockGuard lock(mutex_);
  const auto it = records_.find(id);
  MPAS_CHECK_MSG(it != records_.end(), "unknown session id " << id);
  return it->second->result;
}

std::vector<SessionResult> SessionManager::results() const {
  const util::LockGuard lock(mutex_);
  std::vector<SessionResult> out;
  out.reserve(records_.size());
  for (const auto& [id, rec] : records_) out.push_back(rec->result);
  return out;
}

ServiceStats SessionManager::stats() const {
  const util::LockGuard lock(mutex_);
  return stats_;
}

std::size_t SessionManager::queue_depth() const {
  const util::LockGuard lock(mutex_);
  return queue_.size();
}

Real SessionManager::tenant_budget(const std::string& tenant) const {
  const util::LockGuard lock(mutex_);
  return admission_.tenant_budget(tenant);
}

void SessionManager::publish_locked() const {
  auto& registry = obs::MetricsRegistry::global();
  const auto set = [&registry](const std::string& name, double value) {
    registry.gauge(name).set(value);
  };
  set("service.queue_depth", static_cast<double>(queue_.size()));
  set("service.active_sessions", static_cast<double>(active_));
  set("service.outstanding_modeled_s", outstanding_total_);
  set("service.sessions.submitted", static_cast<double>(stats_.submitted));
  set("service.sessions.admitted", static_cast<double>(stats_.admitted));
  set("service.sessions.admitted_degraded",
      static_cast<double>(stats_.admitted_degraded));
  set("service.sessions.rejected", static_cast<double>(stats_.rejected));
  set("service.sessions.shed", static_cast<double>(stats_.shed));
  set("service.sessions.completed", static_cast<double>(stats_.completed));
  set("service.sessions.failed", static_cast<double>(stats_.failed));
  set("service.sessions.cancelled", static_cast<double>(stats_.cancelled));
  set("service.sessions.timed_out", static_cast<double>(stats_.timed_out));
  set("service.sessions.retries", static_cast<double>(stats_.retries));
  set("service.slo.breaches", static_cast<double>(stats_.slo_breaches));
  set("service.flight_dumps", static_cast<double>(stats_.flight_dumps));
  set("service.sessions.recovered", static_cast<double>(stats_.recovered));
  set("service.sessions.recovered_diverged",
      static_cast<double>(stats_.recovered_diverged));
  for (const auto& [tenant, seconds] : stats_.admitted_seconds_by_tenant)
    set("service.tenant." + tenant + ".admitted_modeled_s", seconds);
}

}  // namespace mpas::service
