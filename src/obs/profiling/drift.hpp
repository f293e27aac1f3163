// ModelDriftMonitor: online comparison of measured step times against the
// machine model's predictions, per named channel (SelfHealingHybrid feeds
// "accel"). Raises an alarm the moment measurement and model
// diverge — the gray-failure evidence HealthMonitor folds in before hard
// faults show, and the trigger for recalibration (ROADMAP item 1).
//
// Drift math (one-sided: only *slowdowns* relative to the model alarm):
//   ratio      r_t  = measured / predicted
//   baseline   B    = mean of the first `warmup` ratios, then frozen — so
//                     a constant machine-speed offset (the build machine
//                     is not Table-II hardware) never reads as drift;
//   deviation  x_t  = clamp(log(r_t / B), +-clamp_log)
//   Page-Hinkley m_t = m_{t-1} + (x_t - delta),  M_t = min(M_t, m_t)
//   alarm when  m_t - M_t > lambda  AND  r_t > ratio_threshold * B for
//   `confirm` consecutive observations — the conjunction kills single-
//   spike false positives while a sustained 2x slowdown still alarms on
//   its second slow observation (strictly before the health monitor's
//   suspect_after + quarantine_after ladder can quarantine).
//
// After an alarm the channel is `drifting` until an observation falls
// back under the threshold; the Page-Hinkley accumulator restarts so a
// second sustained shift re-alarms. Every observation publishes
// obs.profile.* metrics; alarms additionally emit a drift:alarm trace
// instant and reach the registered alarm listeners (delivered after the
// monitor's mutex is released — listeners may call lower-ranked locks
// such as HealthMonitor's). A service session's listener records the
// alarm as its `drift` fact.
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

namespace mpas::obs::profiling {

struct DriftPolicy {
  Real alpha = 0.4;            // EWMA weight of the newest ratio
  int warmup = 8;              // observations to learn the frozen baseline
  Real ratio_threshold = 1.5;  // r > threshold * baseline counts as "over"
  Real ph_delta = 0.05;        // Page-Hinkley drift allowance per step
  Real ph_lambda = 1.0;        // Page-Hinkley alarm threshold
  int confirm = 2;             // consecutive "over" observations to alarm
  Real clamp_log = 1.5;        // per-observation |log deviation| clamp
  bool enabled = true;
};

/// One raised alarm (also appended to the queryable alarm log).
struct DriftAlarm {
  std::string channel;
  std::int64_t step = 0;
  Real ratio = 0;     // measured/predicted at the alarm
  Real baseline = 0;  // frozen warmup baseline
  Real score = 0;     // Page-Hinkley m - M at the alarm
};

class ModelDriftMonitor {
 public:
  explicit ModelDriftMonitor(DriftPolicy policy = {});

  /// Prefix for the obs.profile.* metrics this monitor publishes (the
  /// HealthMonitor metric_scope convention).
  void set_metric_scope(std::string scope);

  /// Observe one (prediction, measurement) pair. Thread-safe; alarms are
  /// delivered to listeners after the internal mutex is released.
  void observe(const std::string& channel, std::int64_t step, Real predicted_s,
               Real measured_s);

  using AlarmListener = std::function<void(const DriftAlarm&)>;
  void add_alarm_listener(AlarmListener listener);

  /// Forget a channel's baseline and Page-Hinkley state (plan swap: the
  /// predicted work just changed shape). Streak/alarm counters survive.
  void reset(const std::string& channel);
  void reset_all();

  // ---- queries ----
  /// EWMA of the channel's measured/predicted ratio (1 when unobserved).
  [[nodiscard]] Real ratio(const std::string& channel) const;
  /// Baseline-relative EWMA ratio (the actual drift estimate; 1 = on
  /// model). Meaningful once warmup completed.
  [[nodiscard]] Real drift(const std::string& channel) const;
  /// True while the channel is past an un-cleared alarm.
  [[nodiscard]] bool drifting(const std::string& channel) const;
  /// Worst baseline-relative ratio seen on any channel since start (>= 1).
  [[nodiscard]] Real worst_ratio() const;
  /// Total alarms raised (atomic; cheap).
  [[nodiscard]] std::uint64_t alarms() const {
    return alarms_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::vector<DriftAlarm> alarm_log() const;
  [[nodiscard]] const DriftPolicy& policy() const { return policy_; }

 private:
  struct Channel {
    int observations = 0;
    Real baseline_sum = 0;
    Real baseline = 0;       // frozen after `warmup` observations
    bool baseline_set = false;
    Real ewma_ratio = 1.0;
    Real ph_m = 0;
    Real ph_min = 0;
    int over_streak = 0;
    bool drifting = false;
    Real worst = 1.0;        // max baseline-relative ratio seen
    Real last_ratio = 1.0;
  };

  Channel& channel_ref(const std::string& name) MPAS_REQUIRES(mutex_);
  void notify_listeners() MPAS_EXCLUDES(mutex_);

  DriftPolicy policy_;
  mutable util::Mutex mutex_{"obs.profile.drift",
                             util::lockrank::kDriftMonitor};
  std::string metric_scope_ MPAS_GUARDED_BY(mutex_);
  std::map<std::string, Channel> channels_ MPAS_GUARDED_BY(mutex_);
  std::vector<DriftAlarm> alarm_log_ MPAS_GUARDED_BY(mutex_);
  std::vector<AlarmListener> listeners_ MPAS_GUARDED_BY(mutex_);
  std::vector<DriftAlarm> pending_notifications_ MPAS_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> alarms_{0};
};

}  // namespace mpas::obs::profiling
