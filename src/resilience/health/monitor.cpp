#include "resilience/health/monitor.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace mpas::resilience::health {

namespace {

/// Trace-instant name per target state (the quarantine/recovery instants
/// the chaos CI smoke-checks in the exported Chrome trace).
const char* instant_name(HealthState to) {
  switch (to) {
    case HealthState::Healthy: return "health:healthy";
    case HealthState::Suspect: return "health:suspect";
    case HealthState::Quarantined: return "health:quarantine";
    case HealthState::Recovered: return "health:recover";
  }
  return "health:unknown";
}

}  // namespace

const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::Healthy: return "healthy";
    case HealthState::Suspect: return "suspect";
    case HealthState::Quarantined: return "quarantined";
    case HealthState::Recovered: return "recovered";
  }
  return "?";
}

HealthMonitor::HealthMonitor(HealthPolicy policy) : policy_(policy) {
  MPAS_CHECK_MSG(policy_.slow_factor > 1.0, "slow_factor must be > 1");
  MPAS_CHECK_MSG(policy_.suspect_after >= 1 && policy_.quarantine_after >= 1 &&
                     policy_.recover_after >= 1,
                 "hysteresis thresholds must be >= 1");
  MPAS_CHECK_MSG(policy_.probe_backoff_start >= 1 &&
                     policy_.probe_backoff_max >= policy_.probe_backoff_start,
                 "probe backoff must satisfy 1 <= start <= max");
}

void HealthMonitor::track(const std::string& entity) {
  const util::LockGuard lock(mutex_);
  entities_.emplace(entity, Entity{});
}

void HealthMonitor::forget(const std::string& entity) {
  const util::LockGuard lock(mutex_);
  entities_.erase(entity);
}

void HealthMonitor::set_metric_scope(std::string scope) {
  const util::LockGuard lock(mutex_);
  metric_scope_ = std::move(scope);
}

void HealthMonitor::add_transition_listener(TransitionListener listener) {
  const util::LockGuard lock(mutex_);
  listeners_.push_back(std::move(listener));
}

HealthMonitor::Entity& HealthMonitor::entity_ref(const std::string& name) {
  const auto it = entities_.find(name);
  MPAS_CHECK_MSG(it != entities_.end(), "untracked health entity '" << name
                                                                    << "'");
  return it->second;
}

const HealthMonitor::Entity& HealthMonitor::entity_ref(
    const std::string& name) const {
  const auto it = entities_.find(name);
  MPAS_CHECK_MSG(it != entities_.end(), "untracked health entity '" << name
                                                                    << "'");
  return it->second;
}

void HealthMonitor::transition(const std::string& name, Entity& e,
                               HealthState to, std::int64_t step,
                               const std::string& reason) {
  const HealthState from = e.state;
  if (from == to) return;
  e.state = to;
  generation_.fetch_add(1, std::memory_order_acq_rel);
  transitions_.push_back({name, from, to, step, reason});
  if (to == HealthState::Quarantined) {
    e.probe_backoff = policy_.probe_backoff_start;
    e.next_probe_step = step + e.probe_backoff;
    e.probe_ok_streak = 0;
  }
  e.bad_streak = 0;
  e.clean_streak = 0;
  auto& registry = obs::MetricsRegistry::global();
  registry.gauge(metric_scope_ + "resilience.health.state." + name)
      .set(static_cast<double>(static_cast<int>(to)));
  registry.counter(metric_scope_ + "resilience.health.transitions").add(1);
  if (to == HealthState::Quarantined)
    registry.counter(metric_scope_ + "resilience.health.quarantines").add(1);
  if (to == HealthState::Recovered)
    registry.counter(metric_scope_ + "resilience.health.recoveries").add(1);
  // Mirror the state into the trace as a counter track, so an exported
  // Chrome trace shows the health timeline next to the instants without
  // needing the metrics JSON.
  MPAS_TRACE_COUNTER(metric_scope_ + "resilience.health.state." + name,
                     static_cast<double>(static_cast<int>(to)));
  MPAS_TRACE_COUNTER(
      metric_scope_ + "resilience.health.transitions",
      static_cast<double>(
          registry.counter(metric_scope_ + "resilience.health.transitions")
              .value()));
  MPAS_TRACE_INSTANT_ARGS(
      instant_name(to),
      obs::trace_arg("entity", name) + "," +
          obs::trace_arg("from", std::string(to_string(from))) + "," +
          obs::trace_arg("step", step) + "," +
          obs::trace_arg("reason", reason));
  pending_notifications_.push_back(transitions_.back());
}

void HealthMonitor::notify_listeners() {
  // A listener may call back into the monitor and cause further
  // transitions; loop until the queue is drained so those are delivered
  // too (on this thread, in order).
  for (;;) {
    std::vector<Transition> pending;
    std::vector<TransitionListener> listeners;
    {
      const util::LockGuard lock(mutex_);
      if (pending_notifications_.empty()) return;
      pending.swap(pending_notifications_);
      listeners = listeners_;
    }
    for (const Transition& t : pending)
      for (const TransitionListener& listener : listeners) listener(t);
  }
}

void HealthMonitor::observe_step_time(const std::string& entity,
                                      std::int64_t /*step*/, Real seconds) {
  const util::LockGuard lock(mutex_);
  Entity& e = entity_ref(entity);
  e.sampled = true;
  e.heartbeat = true;
  e.step_seconds = seconds;
}

void HealthMonitor::observe_heartbeat(const std::string& entity,
                                      std::int64_t /*step*/) {
  const util::LockGuard lock(mutex_);
  entity_ref(entity).heartbeat = true;
}

void HealthMonitor::observe_transfer_retries(const std::string& entity,
                                             std::uint64_t retries) {
  const util::LockGuard lock(mutex_);
  entity_ref(entity).step_retries += retries;
}

void HealthMonitor::observe_failure(const std::string& entity,
                                    std::int64_t step,
                                    const std::string& reason) {
  {
    const util::LockGuard lock(mutex_);
    Entity& e = entity_ref(entity);
    if (e.state == HealthState::Quarantined) return;  // already out
    transition(entity, e, HealthState::Quarantined, step, reason);
  }
  notify_listeners();
}

void HealthMonitor::end_step(std::int64_t step) {
  fold_step_signals(step);
  notify_listeners();
}

/// The locked half of end_step: folds the step's signals into the state
/// machine; listener delivery happens in end_step after this returns.
void HealthMonitor::fold_step_signals(std::int64_t step) {
  const util::LockGuard lock(mutex_);
  for (auto& [name, e] : entities_) {
    // Consume and reset this step's signals up front so every exit path
    // below leaves the accumulator clean.
    const bool sampled = e.sampled;
    const bool heartbeat = e.heartbeat;
    const Real seconds = e.step_seconds;
    const std::uint64_t retries = e.step_retries;
    e.sampled = false;
    e.heartbeat = false;
    e.step_seconds = 0;
    e.step_retries = 0;

    if (e.state == HealthState::Quarantined) continue;  // probation only

    std::string why;
    if (!heartbeat && !sampled) {
      why = "missed heartbeat";
    } else if (retries > policy_.transfer_retry_budget) {
      why = "transfer retries over budget";
    } else if (sampled && e.baseline_set &&
               seconds > policy_.slow_factor * e.baseline) {
      why = "slow step";
    }

    if (sampled) e.last_seconds = seconds;
    if (why.empty()) {
      // Clean step: the first clean sample since the last reset becomes
      // the baseline, held until the next reset.
      if (sampled && !e.baseline_set) {
        e.baseline = seconds;
        e.baseline_set = true;
      }
      e.bad_streak = 0;
      e.clean_streak += 1;
      if (e.state == HealthState::Suspect &&
          e.clean_streak >= policy_.recover_after)
        transition(name, e, HealthState::Healthy, step, "clean streak");
      else if (e.state == HealthState::Recovered &&
               e.clean_streak >= policy_.recover_after)
        transition(name, e, HealthState::Healthy, step,
                   "clean streak after probation");
      continue;
    }

    e.clean_streak = 0;
    e.bad_streak += 1;
    if (e.state == HealthState::Healthy &&
        e.bad_streak >= policy_.suspect_after) {
      transition(name, e, HealthState::Suspect, step, why);
    } else if (e.state == HealthState::Suspect &&
               e.bad_streak >= policy_.quarantine_after) {
      transition(name, e, HealthState::Quarantined, step, why);
    } else if (e.state == HealthState::Recovered) {
      // No benefit of the doubt right after probation.
      transition(name, e, HealthState::Suspect, step, why);
    }
  }
}

bool HealthMonitor::probe_due(const std::string& entity,
                              std::int64_t step) const {
  const util::LockGuard lock(mutex_);
  const Entity& e = entity_ref(entity);
  return e.state == HealthState::Quarantined && step >= e.next_probe_step;
}

void HealthMonitor::observe_probe(const std::string& entity, std::int64_t step,
                                  bool ok) {
  {
    const util::LockGuard lock(mutex_);
    Entity& e = entity_ref(entity);
    MPAS_CHECK_MSG(e.state == HealthState::Quarantined,
                   "probe on non-quarantined entity '" << entity << "'");
    obs::MetricsRegistry::global()
        .counter(metric_scope_ + "resilience.health.probes")
        .add(1);
    MPAS_TRACE_INSTANT_ARGS(
        "health:probe",
        obs::trace_arg("entity", entity) + "," +
            obs::trace_arg("step", step) + "," +
            obs::trace_arg("ok", std::string(ok ? "yes" : "no")));
    if (!ok) {
      e.probe_ok_streak = 0;
      e.probe_backoff =
          std::min(e.probe_backoff * 2, policy_.probe_backoff_max);
      e.next_probe_step = step + e.probe_backoff;
    } else {
      e.probe_ok_streak += 1;
      if (e.probe_ok_streak >= policy_.recover_after) {
        transition(entity, e, HealthState::Recovered, step,
                   "probation passed");
        // Fresh start for the timing baseline: the device may come back at
        // a different speed (e.g. after thermal throttling clears).
        e.baseline_set = false;
        e.last_seconds = 0;
      } else {
        e.next_probe_step = step + 1;  // confirm with back-to-back probes
      }
    }
  }
  notify_listeners();
}

void HealthMonitor::reset_baseline(const std::string& entity) {
  const util::LockGuard lock(mutex_);
  Entity& e = entity_ref(entity);
  e.baseline_set = false;
  e.baseline = 0;
  e.last_seconds = 0;
}

HealthState HealthMonitor::state(const std::string& entity) const {
  const util::LockGuard lock(mutex_);
  return entity_ref(entity).state;
}

bool HealthMonitor::usable(const std::string& entity) const {
  const util::LockGuard lock(mutex_);
  return entity_ref(entity).state != HealthState::Quarantined;
}

Real HealthMonitor::slowdown(const std::string& entity) const {
  const util::LockGuard lock(mutex_);
  const Entity& e = entity_ref(entity);
  if (!e.baseline_set || e.baseline <= 0 || e.last_seconds <= 0) return 1.0;
  return std::max<Real>(1.0, e.last_seconds / e.baseline);
}

std::vector<Transition> HealthMonitor::transitions() const {
  const util::LockGuard lock(mutex_);
  return transitions_;
}

std::vector<std::string> HealthMonitor::entities() const {
  const util::LockGuard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entities_.size());
  for (const auto& [name, e] : entities_) out.push_back(name);
  return out;
}

std::vector<std::string> HealthMonitor::in_state(HealthState state) const {
  const util::LockGuard lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [name, e] : entities_)
    if (e.state == state) out.push_back(name);
  return out;
}

}  // namespace mpas::resilience::health
