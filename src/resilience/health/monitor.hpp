// HealthMonitor: fuses the runtime's failure signals — per-step kernel
// timings, offload transfer retries, heartbeats, and hard faults — into a
// per-entity health state machine:
//
//        slow/retry streak          streak continues
//   Healthy ----------> Suspect ----------------> Quarantined
//      ^                   |  clean streak            |  probation probe
//      |                   v  (hysteresis)            v  (exponential
//      +<-------------- Healthy          Recovered <-+   backoff)
//      ^                                     |
//      +------ clean streak ----------------+
//
// An "entity" is any named failure domain: a device ("accel", "host") or a
// rank ("rank0"). The monitor is deterministic — every decision keys on
// step indices and observed values, never wall-clock time — so seeded chaos
// campaigns reproduce the same transition history run after run. Drivers
// (SelfHealingHybrid, DistributedSw::run) call it from their step loop.
// All public methods are thread-safe (one internal mutex): the session
// service observes many entities from concurrent workers. Determinism is
// then per entity — callers that need a deterministic *global* transition
// order still fuse signals from one thread per entity at step boundaries.
//
// Hysteresis: one slow step never quarantines (suspect_after consecutive
// bad signals to become Suspect, quarantine_after more to be Quarantined)
// and one clean step never clears suspicion (recover_after consecutive
// clean signals). Quarantined entities are only re-admitted through
// probation: probes spaced by exponential backoff must succeed
// recover_after times in a row.
//
// Slow step: a sampled step time above slow_factor x the entity's baseline.
// The baseline is the first clean sample after track, reset_baseline or a
// passed probation, held until the next reset — frozen per plan, so a slow
// ramp cannot drag its own threshold up the way a moving average would.
//
// Every transition bumps generation() — the ReplanEngine trigger — and is
// published as a resilience.health.* metric and a health:* trace instant.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/annotations.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"
#include "util/types.hpp"

namespace mpas::resilience::health {

enum class HealthState : int {
  Healthy = 0,
  Suspect = 1,
  Quarantined = 2,
  Recovered = 3,  // probation passed; Healthy again after clean steps
};

const char* to_string(HealthState state);

struct HealthPolicy {
  Real slow_factor = 1.5;     // step time > slow_factor * baseline is "slow"
  int suspect_after = 2;      // consecutive bad signals: Healthy -> Suspect
  int quarantine_after = 2;   // further bad signals: Suspect -> Quarantined
  int recover_after = 2;      // consecutive clean signals / probes to clear
  int probe_backoff_start = 2;  // steps from quarantine to the first probe
  int probe_backoff_max = 32;   // exponential backoff cap (steps)
  // Transfer retries per step beyond this budget count as a bad signal
  // (the offload link limping along is a gray failure too).
  std::uint64_t transfer_retry_budget = 2;
};

/// One state change, for tests and post-mortem reports.
struct Transition {
  std::string entity;
  HealthState from = HealthState::Healthy;
  HealthState to = HealthState::Healthy;
  std::int64_t step = 0;
  std::string reason;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthPolicy policy = {});

  /// Register an entity (idempotent). Entities start Healthy.
  void track(const std::string& entity);
  /// Drop an entity (e.g. a rank evicted by a shrink).
  void forget(const std::string& entity);

  /// Prefix every metric and trace-counter name this monitor publishes
  /// (e.g. "service.session7."), so concurrent monitors — one per session —
  /// write distinguishable series instead of interleaving one global
  /// counter set. Empty (the default) keeps the historical global names.
  void set_metric_scope(std::string scope);

  /// Observe every state change as it happens (flight recorders, event
  /// logs). Listeners run in registration order on the thread that caused
  /// the transition, *after* the monitor has released its mutex — so a
  /// listener may query or even mutate the monitor (re-entrancy is safe),
  /// at the cost that the monitor's state can have advanced past the
  /// transition being delivered by the time the listener sees it.
  using TransitionListener = std::function<void(const Transition&)>;
  void add_transition_listener(TransitionListener listener);

  // ---- signals (accumulated until end_step folds them) ----
  /// The entity's modeled or measured time for `step`. Doubles as a
  /// heartbeat: an entity that reports nothing in a step missed its beat.
  void observe_step_time(const std::string& entity, std::int64_t step,
                         Real seconds);
  /// Liveness only (no timing) — a rank that is alive but did no work.
  void observe_heartbeat(const std::string& entity, std::int64_t step);
  /// Transfer retries charged to the entity this step (a delta, not a
  /// total; the caller diffs OffloadRuntime / ResilienceStats counters).
  void observe_transfer_retries(const std::string& entity,
                                std::uint64_t retries);
  /// Hard fault (transfer escalation, lost rank): quarantine immediately,
  /// skipping the Suspect hysteresis — there is nothing gradual about it.
  void observe_failure(const std::string& entity, std::int64_t step,
                       const std::string& reason);

  /// Fold the step's signals into the state machine and publish metrics.
  void end_step(std::int64_t step);

  // ---- probation ----
  /// True when a quarantined entity's backoff has elapsed and the driver
  /// should issue a probe (a small transfer / ping) this step.
  [[nodiscard]] bool probe_due(const std::string& entity,
                               std::int64_t step) const;
  /// Probe outcome. Failures double the backoff (capped); recover_after
  /// consecutive successes promote the entity to Recovered.
  void observe_probe(const std::string& entity, std::int64_t step, bool ok);

  /// Invalidate the step-time baseline (state and streaks stay); the next
  /// clean sample becomes the new one. Drivers call this when they swap
  /// schedules: the entity's expected per-step work changed, so comparing
  /// against the old baseline would misread the new plan as a gray
  /// failure.
  void reset_baseline(const std::string& entity);

  // ---- queries ----
  [[nodiscard]] HealthState state(const std::string& entity) const;
  /// Schedulable: everything but Quarantined.
  [[nodiscard]] bool usable(const std::string& entity) const;
  /// Gray-failure severity estimate: last observed time over the clean
  /// baseline, >= 1. Meaningful for Suspect entities (replan derates by
  /// this); 1 when unknown.
  [[nodiscard]] Real slowdown(const std::string& entity) const;
  /// Bumped on every transition; a changed generation tells the driver a
  /// replan is due at the next step boundary. Monotonic (atomic read).
  [[nodiscard]] std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  /// Snapshot of the transition history (copied under the lock).
  [[nodiscard]] std::vector<Transition> transitions() const;
  [[nodiscard]] std::vector<std::string> entities() const;
  [[nodiscard]] std::vector<std::string> in_state(HealthState state) const;
  [[nodiscard]] const HealthPolicy& policy() const { return policy_; }

 private:
  struct Entity {
    HealthState state = HealthState::Healthy;
    bool baseline_set = false;
    Real baseline = 0;        // first clean step seconds since the reset
    Real last_seconds = 0;
    int bad_streak = 0;
    int clean_streak = 0;
    // Signals accumulated for the current step, reset by end_step.
    bool sampled = false;
    bool heartbeat = false;
    Real step_seconds = 0;
    std::uint64_t step_retries = 0;
    // Probation bookkeeping.
    int probe_backoff = 0;
    std::int64_t next_probe_step = 0;
    int probe_ok_streak = 0;
  };

  // Helpers assume mutex_ is held by the public caller.
  Entity& entity_ref(const std::string& name) MPAS_REQUIRES(mutex_);
  const Entity& entity_ref(const std::string& name) const
      MPAS_REQUIRES(mutex_);
  /// Record the state change and queue the listener notification; the
  /// public caller drains the queue via notify_listeners() after
  /// unlocking (never invoke user callbacks under mutex_ — a re-entrant
  /// listener would self-deadlock).
  void transition(const std::string& name, Entity& e, HealthState to,
                  std::int64_t step, const std::string& reason)
      MPAS_REQUIRES(mutex_);
  /// Deliver queued transitions to the listeners outside the lock.
  void notify_listeners() MPAS_EXCLUDES(mutex_);
  /// The locked half of end_step (takes mutex_ itself).
  void fold_step_signals(std::int64_t step) MPAS_EXCLUDES(mutex_);

  HealthPolicy policy_;
  mutable util::Mutex mutex_{"resilience.health_monitor",
                             util::lockrank::kHealthMonitor};
  std::string metric_scope_ MPAS_GUARDED_BY(mutex_);
  std::map<std::string, Entity> entities_ MPAS_GUARDED_BY(mutex_);
  std::vector<Transition> transitions_ MPAS_GUARDED_BY(mutex_);
  std::vector<TransitionListener> listeners_ MPAS_GUARDED_BY(mutex_);
  /// Transitions recorded but not yet delivered to listeners.
  std::vector<Transition> pending_notifications_ MPAS_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace mpas::resilience::health
